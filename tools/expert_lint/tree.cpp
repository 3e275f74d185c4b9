#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>
#include <unordered_set>

#include "analysis.hpp"
#include "expert/util/parallel.hpp"
#include "graph.hpp"
#include "index.hpp"
#include "lint.hpp"

namespace expert::lint {

namespace {

// Raw process-lifecycle syscalls. `raise` is deliberately absent: a
// process signalling *itself* (chaos kill_at) cannot orphan a child.
const std::unordered_set<std::string> kProcessCalls = {
    "fork",   "vfork",  "execv",  "execve", "execvp", "execvpe",
    "execl",  "execle", "execlp", "waitpid", "kill",  "posix_spawn",
    "posix_spawnp",
};

/// Syscalls that can fail with EINTR and are safe (and required) to retry.
/// `close` is handled separately: on Linux the descriptor is released even
/// when close reports EINTR, so retrying can close a descriptor another
/// thread just opened — util::close_fd is the only sanctioned form.
const std::unordered_set<std::string> kEintrCalls = {
    "read",    "write",    "pread",    "pwrite",   "readv",   "writev",
    "poll",    "ppoll",    "select",   "pselect",  "waitpid", "wait",
    "fsync",   "fdatasync", "open",    "openat",   "send",    "recv",
    "sendto",  "recvfrom", "sendmsg",  "recvmsg",  "connect", "accept",
    "accept4", "nanosleep", "truncate", "ftruncate", "flock",  "msync",
};

/// POSIX async-signal-safe functions (the subset this codebase could
/// plausibly reach between fork and exec). Anything else inside an
/// EXPERT_SIGNAL_SAFE function is SIG001.
const std::unordered_set<std::string> kAsyncSignalSafe = {
    "_exit",      "_Exit",     "abort",      "access",    "alarm",
    "chdir",      "chmod",     "close",      "connect",   "dup",
    "dup2",       "dup3",      "execl",      "execle",    "execv",
    "execve",     "execvp",    "faccessat",  "fchdir",    "fcntl",
    "fdatasync",  "fork",      "fstat",      "fsync",     "ftruncate",
    "getegid",    "geteuid",   "getgid",     "getpid",    "getppid",
    "getuid",     "kill",      "link",       "lseek",     "mkdir",
    "open",       "openat",    "pause",      "pipe",      "pipe2",
    "poll",       "raise",     "read",       "recv",      "rename",
    "rmdir",      "send",      "setsid",     "sigaction", "sigaddset",
    "sigdelset",  "sigemptyset", "sigfillset", "sigismember", "signal",
    "sigprocmask", "stat",     "umask",      "unlink",    "waitpid",
    "write",
};

bool ends_with(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string file_stem(std::string_view path) {
  const std::size_t slash = path.find_last_of("/\\");
  std::string_view base =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  const std::size_t dot = base.rfind('.');
  if (dot != std::string_view::npos) base = base.substr(0, dot);
  return std::string(base);
}

/// Resolve a call site to candidate definitions in the index. Qualified
/// calls resolve exactly; member/unqualified calls prefer the caller's own
/// class, falling back to every same-named function (conservative union —
/// receiver types are not tracked).
std::vector<const FunctionDecl*> resolve_call(const TreeIndex& tree,
                                              const FunctionDecl& caller,
                                              const CallSite& cs) {
  if (cs.global_qualified) return {};  // `::f(` is the libc symbol
  if (!cs.qualifier.empty()) {
    const FunctionDecl* fn = tree.find_function(cs.qualifier, cs.name);
    if (fn != nullptr) return {fn};
    return {};
  }
  if (!caller.cls.empty()) {
    const FunctionDecl* own = tree.find_function(caller.cls, cs.name);
    if (own != nullptr) return {own};
  }
  return tree.functions_named(cs.name);
}

// ---- LOCK001: lock-acquisition-order graph -----------------------------

/// Memoized "which canonical mutexes does calling this function (and its
/// callees) acquire at some point". Call-graph cycles terminate via the
/// visiting set (a recursive chain contributes what it acquired so far).
class AcquireClosure {
 public:
  explicit AcquireClosure(const TreeIndex& tree) : tree_(tree) {}

  const std::set<std::string>& of(const FunctionDecl* fn) {
    const auto it = memo_.find(fn);
    if (it != memo_.end()) return it->second;
    if (visiting_.count(fn) > 0) return empty_;
    visiting_.insert(fn);
    std::set<std::string> acquired;
    for (const LockEvent& ev : fn->events) {
      if (ev.kind == LockEvent::Kind::Acquire) {
        acquired.insert(canonical_mutex_name(tree_, *fn, ev.mutex));
      } else if (ev.kind == LockEvent::Kind::Call) {
        for (const FunctionDecl* callee :
             resolve_call(tree_, *fn, fn->calls[ev.call])) {
          if (callee == fn) continue;
          const std::set<std::string>& sub = of(callee);
          acquired.insert(sub.begin(), sub.end());
        }
      }
    }
    visiting_.erase(fn);
    return memo_.emplace(fn, std::move(acquired)).first->second;
  }

 private:
  const TreeIndex& tree_;
  std::map<const FunctionDecl*, std::set<std::string>> memo_;
  std::set<const FunctionDecl*> visiting_;
  const std::set<std::string> empty_;
};

}  // namespace

std::string canonical_mutex_name(const TreeIndex& tree,
                                 const FunctionDecl& fn,
                                 const std::string& raw) {
  // 1. A member of the function's own class.
  if (!fn.cls.empty() && tree.class_has_mutex_member(fn.cls, raw)) {
    return fn.cls + "::" + raw;
  }
  // 2. A unique class anywhere in the tree with that mutex member.
  const auto owners = tree.classes_with_mutex_member(raw);
  if (owners.size() == 1) {
    return owners[0]->name + "::" + raw;
  }
  // 3. Ambiguous or unknown: file-local identity, so two unrelated mutexes
  // that happen to share a name (`mutex_`) cannot fabricate a cross-TU
  // cycle.
  return file_stem(fn.file) + ":" + raw;
}

void run_lock_order_rule(const TreeIndex& tree, std::vector<Finding>& out) {
  LockGraph graph;
  AcquireClosure closure(tree);

  for (const FileIndex& file : tree.files()) {
    for (const FunctionDecl& fn : file.functions) {
      std::vector<std::string> held;
      for (const LockEvent& ev : fn.events) {
        switch (ev.kind) {
          case LockEvent::Kind::Acquire: {
            const std::string name = canonical_mutex_name(tree, fn, ev.mutex);
            for (const std::string& h : held) {
              graph.add_edge(h, name, fn.file, ev.line);
            }
            held.push_back(name);
            break;
          }
          case LockEvent::Kind::Release: {
            const std::string name = canonical_mutex_name(tree, fn, ev.mutex);
            const auto it = std::find(held.rbegin(), held.rend(), name);
            if (it != held.rend()) held.erase(std::next(it).base());
            break;
          }
          case LockEvent::Kind::Call: {
            if (held.empty()) break;
            for (const FunctionDecl* callee :
                 resolve_call(tree, fn, fn.calls[ev.call])) {
              for (const std::string& acquired : closure.of(callee)) {
                // Re-acquisition of a held mutex through a call is left to
                // the clang REQUIRES/EXCLUDES analysis; only cross-mutex
                // ordering feeds the graph.
                if (std::find(held.begin(), held.end(), acquired) !=
                    held.end()) {
                  continue;
                }
                for (const std::string& h : held) {
                  graph.add_edge(h, acquired, fn.file, ev.line);
                }
              }
            }
            break;
          }
        }
      }
    }
  }

  for (const LockCycle& cycle : graph.cycles()) {
    if (cycle.edges.empty()) continue;
    const auto site = std::min_element(
        cycle.edges.begin(), cycle.edges.end(),
        [](const LockEdge& a, const LockEdge& b) {
          return std::tie(a.file, a.line) < std::tie(b.file, b.line);
        });
    std::ostringstream msg;
    msg << "lock-order cycle between {";
    for (std::size_t i = 0; i < cycle.nodes.size(); ++i) {
      msg << (i == 0 ? "" : ", ") << cycle.nodes[i];
    }
    msg << "}: ";
    for (std::size_t i = 0; i < cycle.edges.size(); ++i) {
      const LockEdge& e = cycle.edges[i];
      msg << (i == 0 ? "" : ", ") << e.from << " -> " << e.to << " ("
          << e.file << ":" << e.line << ")";
    }
    msg << "; acquire these mutexes in one global order";
    out.push_back(Finding{"LOCK001", site->file, site->line, msg.str()});
  }
}

namespace {

/// True when an unqualified `name(` inside `fn` is an implicit-this call
/// to the caller's own class method, or a call to a free function the
/// index knows — i.e. structurally NOT the libc symbol of the same name.
bool resolves_to_indexed_function(const TreeIndex& tree,
                                  const FunctionDecl& fn,
                                  const CallSite& cs) {
  if (cs.member_access || cs.global_qualified || !cs.qualifier.empty()) {
    return false;
  }
  if (!fn.cls.empty() && tree.find_function(fn.cls, cs.name) != nullptr) {
    return true;
  }
  for (const FunctionDecl* candidate : tree.functions_named(cs.name)) {
    if (candidate->cls.empty()) return true;
  }
  return false;
}

}  // namespace

void run_index_rules(const FileIndex& file, const Scope& scope,
                     const TreeIndex& tree, std::vector<Finding>& out) {
  if (!scope.library) return;

  // PROC001: raw process-lifecycle syscalls outside procexec/. Member
  // calls (`rng.fork(...)`) and class-qualified calls (`Rng::fork`) are
  // methods by construction — the index resolves the qualifier instead of
  // pattern-matching token shapes.
  std::set<std::pair<int, std::string>> proc_sites;
  if (!scope.procexec) {
    for (const FunctionDecl& fn : file.functions) {
      for (const CallSite& cs : fn.calls) {
        if (kProcessCalls.count(cs.name) == 0) continue;
        if (cs.member_access || !cs.qualifier.empty()) continue;
        if (resolves_to_indexed_function(tree, fn, cs)) continue;
        out.push_back(Finding{
            "PROC001", file.path, cs.line,
            "raw '" + cs.name +
                "' outside procexec/: spawn and signal workers through "
                "procexec::ProcessPool so every child is supervised, "
                "deadlined, and reaped"});
        proc_sites.emplace(cs.line, cs.name);
      }
    }
  }

  // SYS001: EINTR discipline. Everything interruptible goes through
  // util::retry_eintr; close goes through util::close_fd. The wrapper
  // implementations themselves are the one exemption. Sites that already
  // earned PROC001 (waitpid outside procexec/) are not double-reported —
  // the fix for those is the supervised pool, not a retry loop.
  if (!ends_with(file.path, "util/eintr.hpp")) {
    for (const FunctionDecl& fn : file.functions) {
      for (const CallSite& cs : fn.calls) {
        if (cs.member_access || !cs.qualifier.empty()) continue;
        if (proc_sites.count({cs.line, cs.name}) > 0) continue;
        if (resolves_to_indexed_function(tree, fn, cs)) continue;
        if (cs.name == "close") {
          out.push_back(Finding{
              "SYS001", file.path, cs.line,
              cs.in_retry_eintr
                  ? "close() must never be retried on EINTR (Linux "
                    "releases the descriptor anyway, so a retry can close "
                    "a descriptor another thread just opened); use "
                    "util::close_fd"
                  : "raw close(): EINTR semantics are platform-specific "
                    "and a double close races other threads' descriptors; "
                    "use util::close_fd"});
        } else if (kEintrCalls.count(cs.name) > 0 && !cs.in_retry_eintr) {
          out.push_back(Finding{
              "SYS001", file.path, cs.line,
              "raw '" + cs.name +
                  "' can fail with EINTR mid-campaign and turn an "
                  "interrupted call into a spurious failure; wrap it in "
                  "util::retry_eintr"});
        }
      }
    }
  }

  // ANN001: annotation coverage in the concurrency-audited modules. A
  // mutex member must be a util::Mutex (std mutexes are invisible to
  // -Wthread-safety), and a class holding one must either annotate at
  // least one member EXPERT_GUARDED_BY / EXPERT_PT_GUARDED_BY or be a
  // capability itself.
  if (!scope.ann_module.empty()) {
    for (const ClassDecl& cls : file.classes) {
      bool has_value_mutex = false;
      std::string first_mutex;
      for (const MutexMember& m : cls.mutex_members) {
        if (m.is_std) {
          // A capability class wrapping a std::mutex IS the annotated
          // form (util::Mutex itself); the raw member is its
          // implementation detail.
          if (cls.capability) continue;
          out.push_back(Finding{
              "ANN001", file.path, m.line,
              "std mutex member '" + m.name + "' in " + scope.ann_module +
                  "/ is invisible to -Wthread-safety; use util::Mutex "
                  "(include/expert/util/thread_safety.hpp) so GUARDED_BY "
                  "contracts are compiler-checked"});
        } else {
          if (!has_value_mutex) first_mutex = m.name;
          has_value_mutex = true;
        }
      }
      if (cls.capability || !has_value_mutex) continue;
      if (!cls.any_guarded_member) {
        out.push_back(Finding{
            "ANN001", file.path, cls.line,
            "class '" + cls.name + "' declares mutex member '" + first_mutex +
                "' but marks no member EXPERT_GUARDED_BY: the lock "
                "protocol is invisible to -Wthread-safety; annotate the "
                "guarded state (or EXPERT_CAPABILITY the class if it is "
                "itself a lock)"});
      }
    }
  }

  // SIG001: async-signal-safety. A function marked EXPERT_SIGNAL_SAFE
  // (runs between fork and exec, or in a signal-adjacent path) may only
  // call the POSIX async-signal-safe set or other indexed functions that
  // are themselves marked.
  for (const FunctionDecl& fn : file.functions) {
    if (!fn.signal_safe) continue;
    for (const CallSite& cs : fn.calls) {
      if (kAsyncSignalSafe.count(cs.name) > 0) continue;
      const auto resolved = resolve_call(tree, fn, cs);
      const bool all_marked =
          !resolved.empty() &&
          std::all_of(resolved.begin(), resolved.end(),
                      [](const FunctionDecl* f) { return f->signal_safe; });
      if (all_marked) continue;
      out.push_back(Finding{
          "SIG001", file.path, cs.line,
          "'" + cs.name + "' inside EXPERT_SIGNAL_SAFE function '" +
              fn.name +
              "' is not async-signal-safe: after fork the child may hold "
              "no locks, so only the POSIX signal-safe set (or other "
              "EXPERT_SIGNAL_SAFE functions) may run before exec"});
    }
  }
}

// ---- orchestration -----------------------------------------------------

namespace {

struct WalkResult {
  std::vector<std::string> files;
  std::vector<Finding> findings;  // IO000 walk errors
};

WalkResult walk_paths(const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  WalkResult walk;
  for (const std::string& path : paths) {
    std::error_code ec;
    if (fs::is_directory(path, ec)) {
      for (fs::recursive_directory_iterator it(path, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".hpp" || ext == ".cpp") {
          walk.files.push_back(it->path().generic_string());
        }
      }
      if (ec) {
        walk.findings.push_back(
            Finding{"IO000", path, 0, "cannot walk path: " + ec.message()});
      }
    } else {
      walk.files.push_back(path);
    }
  }
  std::sort(walk.files.begin(), walk.files.end());
  walk.files.erase(std::unique(walk.files.begin(), walk.files.end()),
                   walk.files.end());
  return walk;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
}

}  // namespace

std::vector<Finding> lint_tree(const std::vector<std::string>& paths,
                               const TreeOptions& options) {
  WalkResult walk = walk_paths(paths);
  const std::vector<std::string>& files = walk.files;

  // Pass 1, parallel: lex + token rules + per-file index. Results land in
  // per-file slots, so the merge below runs in sorted-path order and the
  // output is byte-identical for any thread count.
  std::vector<std::optional<FileAnalysis>> slots(files.size());
  const auto analyze_one = [&](std::size_t i) {
    const std::optional<std::string> source = read_file(files[i]);
    if (source.has_value()) slots[i] = analyze_file(files[i], *source);
  };
  if (options.threads == 1 || files.size() <= 1) {
    for (std::size_t i = 0; i < files.size(); ++i) analyze_one(i);
  } else {
    util::ThreadPool pool(static_cast<std::size_t>(
        options.threads < 0 ? 0 : options.threads));
    pool.parallel_for(files.size(), analyze_one);
  }

  // Sequential merge + pass 2.
  std::vector<Finding> findings = std::move(walk.findings);
  TreeIndex tree;
  std::map<std::string, const FileAnalysis*> by_path;
  for (std::size_t i = 0; i < files.size(); ++i) {
    if (!slots[i].has_value()) {
      findings.push_back(Finding{"IO000", files[i], 0, "cannot open file"});
      continue;
    }
    FileAnalysis& fa = *slots[i];
    by_path[fa.path] = &fa;
    findings.insert(findings.end(),
                    std::make_move_iterator(fa.token_findings.begin()),
                    std::make_move_iterator(fa.token_findings.end()));
    tree.merge(std::move(fa.index));
  }
  for (const FileIndex& file : tree.files()) {
    run_index_rules(file, by_path.at(file.path)->scope, tree, findings);
  }
  run_lock_order_rule(tree, findings);

  findings = filter_suppressed(std::move(findings), by_path);
  sort_findings(findings);
  return findings;
}

std::vector<Finding> lint_source(std::string_view path,
                                 std::string_view source) {
  FileAnalysis fa = analyze_file(path, source);
  std::vector<Finding> findings = std::move(fa.token_findings);
  TreeIndex tree;
  tree.merge(std::move(fa.index));
  run_index_rules(tree.files()[0], fa.scope, tree, findings);
  run_lock_order_rule(tree, findings);
  const std::map<std::string, const FileAnalysis*> by_path = {
      {fa.path, &fa}};
  findings = filter_suppressed(std::move(findings), by_path);
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.line, a.rule) < std::tie(b.line, b.rule);
            });
  return findings;
}

std::vector<Finding> lint_paths(const std::vector<std::string>& paths) {
  return lint_tree(paths, TreeOptions{});
}

}  // namespace expert::lint
