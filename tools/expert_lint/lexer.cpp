#include "lexer.hpp"

#include <cctype>

namespace expert::lint {

namespace {

bool ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

bool digit(char c) { return std::isdigit(static_cast<unsigned char>(c)); }

/// Multi-character operators, longest first so maximal munch works.
constexpr std::string_view kMultiPunct[] = {
    "<<=", ">>=", "...", "->*", "==", "!=", "<=", ">=", "&&", "||", "<<",
    ">>", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "->", "::", ".*",
};

}  // namespace

bool is_float_literal(std::string_view text) {
  if (text.size() > 1 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    return text.find('p') != std::string_view::npos ||
           text.find('P') != std::string_view::npos;
  }
  if (text.size() > 1 && text[0] == '0' && (text[1] == 'b' || text[1] == 'B')) {
    return false;
  }
  return text.find('.') != std::string_view::npos ||
         text.find('e') != std::string_view::npos ||
         text.find('E') != std::string_view::npos;
}

LexResult lex(std::string_view source) {
  LexResult out;
  std::size_t i = 0;
  const std::size_t n = source.size();
  int line = 1;
  // After `# include`, the next <...> is a header-name, not comparisons.
  bool expect_include_path = false;

  auto push = [&](TokenKind kind, std::string text) {
    out.tokens.push_back(Token{kind, std::move(text), line});
  };

  while (i < n) {
    const char c = source[i];
    if (c == '\n') {
      ++line;
      ++i;
      expect_include_path = false;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v') {
      ++i;
      continue;
    }
    // Line continuation inside a directive.
    if (c == '\\' && i + 1 < n && source[i + 1] == '\n') {
      ++line;
      i += 2;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < n && source[i + 1] == '/') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j < n && source[j] != '\n') ++j;
      out.comments.push_back(
          Comment{start_line, std::string(source.substr(i + 2, j - i - 2))});
      i = j;
      continue;
    }
    if (c == '/' && i + 1 < n && source[i + 1] == '*') {
      const int start_line = line;
      std::size_t j = i + 2;
      while (j + 1 < n && !(source[j] == '*' && source[j + 1] == '/')) {
        if (source[j] == '\n') ++line;
        ++j;
      }
      out.comments.push_back(
          Comment{start_line, std::string(source.substr(i + 2, j - i - 2))});
      i = (j + 1 < n) ? j + 2 : n;
      continue;
    }
    // Header-name operand of #include.
    if (expect_include_path && (c == '<' || c == '"')) {
      const char close = (c == '<') ? '>' : '"';
      std::size_t j = i + 1;
      while (j < n && source[j] != close && source[j] != '\n') ++j;
      const std::size_t end = (j < n && source[j] == close) ? j + 1 : j;
      push(TokenKind::IncludePath, std::string(source.substr(i, end - i)));
      expect_include_path = false;
      i = end;
      continue;
    }
    // Raw string literal.
    if (c == 'R' && i + 1 < n && source[i + 1] == '"') {
      std::size_t j = i + 2;
      while (j < n && source[j] != '(') ++j;
      std::string delim(")");
      delim.append(source.substr(i + 2, j - i - 2)).push_back('"');
      const std::size_t close = source.find(delim, j);
      const std::size_t end =
          (close == std::string_view::npos) ? n : close + delim.size();
      const int start_line = line;
      for (std::size_t k = i; k < end; ++k) {
        if (source[k] == '\n') ++line;
      }
      out.tokens.push_back(Token{TokenKind::String,
                                 std::string(source.substr(i, end - i)),
                                 start_line});
      i = end;
      continue;
    }
    // String / char literal (with escape handling).
    if (c == '"' || c == '\'') {
      std::size_t j = i + 1;
      while (j < n && source[j] != c) {
        if (source[j] == '\\' && j + 1 < n) ++j;
        if (source[j] == '\n') ++line;
        ++j;
      }
      const std::size_t end = (j < n) ? j + 1 : n;
      push(c == '"' ? TokenKind::String : TokenKind::CharLiteral,
           std::string(source.substr(i, end - i)));
      i = end;
      continue;
    }
    // pp-number: digits, or dot followed by a digit.
    if (digit(c) || (c == '.' && i + 1 < n && digit(source[i + 1]))) {
      std::size_t j = i;
      while (j < n) {
        const char d = source[j];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') && j > i &&
                   (source[j - 1] == 'e' || source[j - 1] == 'E' ||
                    source[j - 1] == 'p' || source[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      push(TokenKind::Number, std::string(source.substr(i, j - i)));
      i = j;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i;
      while (j < n && ident_char(source[j])) ++j;
      std::string text(source.substr(i, j - i));
      if (!out.tokens.empty() && out.tokens.back().text == "#" &&
          (text == "include" || text == "include_next")) {
        expect_include_path = true;
      }
      push(TokenKind::Identifier, std::move(text));
      i = j;
      continue;
    }
    // Punctuation, longest operator first.
    bool matched = false;
    for (std::string_view op : kMultiPunct) {
      if (source.substr(i, op.size()) == op) {
        push(TokenKind::Punct, std::string(op));
        i += op.size();
        matched = true;
        break;
      }
    }
    if (!matched) {
      push(TokenKind::Punct, std::string(1, c));
      ++i;
    }
  }
  return out;
}

}  // namespace expert::lint
