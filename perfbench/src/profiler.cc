#include "profiler.h"

#include <cxxabi.h>
#include <elf.h>
#include <signal.h>
#include <sys/time.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <new>
#include <sstream>
#include <stdexcept>

// Anchor whose runtime address, minus its symbol-table value, gives the load
// bias of this (position-independent) binary.
extern "C" void perfbench_bias_anchor() {}

namespace perfbench::prof {

namespace {

// --- allocation counter ------------------------------------------------------

std::atomic<bool> g_counting{false};
/// Striped counters: threads hash to different cache lines, so counting in
/// the threaded grid does not serialize its workers on one line.
struct alignas(64) stripe {
  std::atomic<std::uint64_t> n{0};
};
std::array<stripe, 64> g_allocs;

void note_allocation() {
  if (!g_counting.load(std::memory_order_relaxed)) return;
  static thread_local char marker;
  const auto slot = (reinterpret_cast<std::uintptr_t>(&marker) >> 12) %
                    g_allocs.size();
  g_allocs[slot].n.fetch_add(1, std::memory_order_relaxed);
}

void* allocate(std::size_t n) {
  note_allocation();
  for (;;) {
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

void* allocate_aligned(std::size_t n, std::align_val_t al) {
  note_allocation();
  const auto a = static_cast<std::size_t>(al);
  const std::size_t size = (std::max<std::size_t>(n, 1) + a - 1) / a * a;
  for (;;) {
    if (void* p = std::aligned_alloc(a, size)) return p;
    std::new_handler h = std::get_new_handler();
    if (h == nullptr) throw std::bad_alloc();
    h();
  }
}

// --- PC sampler --------------------------------------------------------------

constexpr std::size_t sample_capacity = std::size_t{1} << 21;
std::uintptr_t g_samples[sample_capacity];
std::atomic<std::size_t> g_next_sample{0};

void on_sigprof(int, siginfo_t*, void* context) {
  const auto* uc = static_cast<const ucontext_t*>(context);
#if defined(__x86_64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
#elif defined(__aarch64__)
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.pc);
#else
#error "profiler: unsupported architecture"
#endif
  const std::size_t i = g_next_sample.fetch_add(1, std::memory_order_relaxed);
  if (i < sample_capacity) g_samples[i] = pc;
}

// --- symbolization -----------------------------------------------------------

struct symbol {
  std::uintptr_t lo;
  std::uintptr_t hi;
  std::string name;  // mangled
};

std::vector<char> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("profiler: cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Function symbols of this binary's .symtab, sorted by address and shifted
/// by the load bias.
std::vector<symbol> binary_symbols() {
  const std::vector<char> elf = read_file("/proc/self/exe");
  if (elf.size() < sizeof(Elf64_Ehdr)) {
    throw std::runtime_error("profiler: truncated ELF header");
  }
  Elf64_Ehdr eh;
  std::memcpy(&eh, elf.data(), sizeof eh);
  const auto section = [&](std::size_t i) {
    Elf64_Shdr sh;
    const std::size_t off = eh.e_shoff + i * eh.e_shentsize;
    if (off + sizeof sh > elf.size()) {
      throw std::runtime_error("profiler: section header out of range");
    }
    std::memcpy(&sh, elf.data() + off, sizeof sh);
    return sh;
  };
  std::vector<symbol> out;
  std::uintptr_t anchor = 0;
  for (std::size_t s = 0; s < eh.e_shnum; ++s) {
    const Elf64_Shdr sh = section(s);
    if (sh.sh_type != SHT_SYMTAB) continue;
    const Elf64_Shdr strtab = section(sh.sh_link);
    const std::size_t count = sh.sh_size / sizeof(Elf64_Sym);
    for (std::size_t i = 0; i < count; ++i) {
      Elf64_Sym sym;
      const std::size_t off = sh.sh_offset + i * sizeof sym;
      if (off + sizeof sym > elf.size()) break;
      std::memcpy(&sym, elf.data() + off, sizeof sym);
      if (ELF64_ST_TYPE(sym.st_info) != STT_FUNC || sym.st_value == 0 ||
          sym.st_shndx == SHN_UNDEF || sym.st_name >= strtab.sh_size) {
        continue;
      }
      const char* name = elf.data() + strtab.sh_offset + sym.st_name;
      if (std::strcmp(name, "perfbench_bias_anchor") == 0) {
        anchor = sym.st_value;
      }
      out.push_back({sym.st_value, sym.st_value + std::max<Elf64_Xword>(
                                                      sym.st_size, 1),
                     name});
    }
  }
  if (anchor == 0) throw std::runtime_error("profiler: no symbol table");
  const std::uintptr_t bias =
      reinterpret_cast<std::uintptr_t>(&perfbench_bias_anchor) - anchor;
  for (symbol& s : out) {
    s.lo += bias;
    s.hi += bias;
  }
  std::sort(out.begin(), out.end(),
            [](const symbol& a, const symbol& b) { return a.lo < b.lo; });
  return out;
}

/// Executable mappings of shared objects other than this binary.
std::vector<std::pair<std::uintptr_t, std::uintptr_t>> library_ranges() {
  char exe[4096] = {};
  const ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
  const std::string self = n > 0 ? std::string(exe, static_cast<std::size_t>(n))
                                 : std::string();
  std::ifstream maps("/proc/self/maps");
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> out;
  std::string line;
  while (std::getline(maps, line)) {
    std::istringstream in(line);
    std::string range, perms, offset, dev, inode, path;
    in >> range >> perms >> offset >> dev >> inode;
    std::getline(in >> std::ws, path);
    if (perms.find('x') == std::string::npos || path.empty() || path == self) {
      continue;
    }
    const std::size_t dash = range.find('-');
    out.emplace_back(std::stoull(range.substr(0, dash), nullptr, 16),
                     std::stoull(range.substr(dash + 1), nullptr, 16));
  }
  return out;
}

std::string demangle(const std::string& mangled) {
  int status = 0;
  char* d = abi::__cxa_demangle(mangled.c_str(), nullptr, nullptr, &status);
  if (status != 0 || d == nullptr) return mangled;
  std::string out(d);
  std::free(d);
  return out;
}

/// Demangled name up to its parameter list, without a leading return type:
/// "void std::deque<T>::f<U>(args)" -> "std::deque<T>::f<U>".
std::string scope_head(const std::string& name) {
  static const std::string anon = "(anonymous namespace)";
  int depth = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i < name.size(); ++i) {
    const char ch = name[i];
    if (name.compare(i, anon.size(), anon) == 0) {
      i += anon.size() - 1;
      continue;
    }
    if (ch == '<') ++depth;
    if (ch == '>') --depth;
    if (depth != 0) continue;
    if (ch == ' ') start = i + 1;
    if (ch == '(') return name.substr(start, i - start);
  }
  return name.substr(start);
}

/// First-level template arguments of `head`'s first template.
std::vector<std::string> template_args(const std::string& head) {
  std::vector<std::string> args;
  const std::size_t open = head.find('<');
  if (open == std::string::npos) return args;
  int depth = 0;
  std::size_t from = open + 1;
  for (std::size_t i = open; i < head.size(); ++i) {
    const char ch = head[i];
    if (ch == '<' || ch == '(') ++depth;
    if (ch == '>' || ch == ')') --depth;
    if (depth == 1 && ch == ',') {
      args.push_back(head.substr(from, i - from));
      from = i + 1;
    }
    if (depth == 0) {
      args.push_back(head.substr(from, i - from));
      break;
    }
  }
  return args;
}

/// Layer of a name that starts with "mcc::".
std::string mcc_layer(const std::string& name) {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"mcc::sim::scheduler", "sim.scheduler"},
      {"mcc::sim::event_", "sim.scheduler"},
      {"mcc::sim::detail::", "sim.scheduler"},
      {"mcc::sim::link", "sim.link"},
      {"mcc::sim::aqm", "sim.link"},
      {"mcc::sim::make_aqm", "sim.link"},
      {"mcc::sim::droptail_aqm", "sim.link"},
      {"mcc::sim::red_aqm", "sim.link"},
      {"mcc::sim::codel_aqm", "sim.link"},
      {"mcc::sim::transmission_time", "sim.link"},
      {"mcc::sim::", "sim.node"},
      {"mcc::core::sigma_", "core.sigma"},
      {"mcc::core::serialize", "core.sigma"},
      {"mcc::core::deserialize_key_block", "core.sigma"},
      {"mcc::core::block_from_keys", "core.sigma"},
      {"mcc::core::", "core.delta"},
      {"mcc::flid::", "flid"},
      {"mcc::crypto::", "crypto"},
      {"mcc::mcast::", "mcast"},
      {"mcc::tcp::", "tcp"},
      {"mcc::cm::", "cm"},
      {"mcc::population::", "population"},
      {"mcc::adversary::", "adversary"},
      {"mcc::exp::", "exp"},
      {"mcc::obs::", "obs"},
      {"mcc::util::", "runtime"},
  };
  for (const auto& [prefix, layer] : table) {
    if (name.compare(0, prefix.size(), prefix) == 0) return layer;
  }
  return "unattributed";
}

}  // namespace

std::string layer_of_symbol(const std::string& demangled) {
  const std::string head = scope_head(demangled);
  const bool wrapper = head.rfind("std::", 0) == 0 ||
                       head.rfind("__gnu_cxx::", 0) == 0 ||
                       head.rfind("mcc::sim::event_fn", 0) == 0;
  if (wrapper) {
    std::vector<std::string> args = template_args(head);
    // std::function's handler: the callable is its last argument.
    if (head.rfind("std::_Function_handler<", 0) == 0 && !args.empty()) {
      args = {args.back()};
    }
    for (const std::string& a : args) {
      const std::size_t begin = a.find_first_not_of(' ');
      if (begin != std::string::npos && a.compare(begin, 9, "perfbench") == 0) {
        return "unattributed";
      }
      const std::size_t at = a.find("mcc::");
      if (at != std::string::npos) return mcc_layer(a.substr(at));
    }
    return head.rfind("mcc::", 0) == 0 ? mcc_layer(head) : "runtime";
  }
  if (head.rfind("mcc::", 0) == 0) return mcc_layer(head);
  if (head.rfind("perfbench", 0) == 0 || head == "main") return "unattributed";
  return "runtime";
}

void count_allocations(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocations() {
  std::uint64_t sum = 0;
  for (const stripe& s : g_allocs) sum += s.n.load(std::memory_order_relaxed);
  return sum;
}

void start_sampling(int interval_us) {
  struct sigaction sa {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  if (sigaction(SIGPROF, &sa, nullptr) != 0) {
    throw std::runtime_error("profiler: sigaction failed");
  }
  itimerval tv{};
  tv.it_interval.tv_usec = interval_us;
  tv.it_value.tv_usec = interval_us;
  if (setitimer(ITIMER_PROF, &tv, nullptr) != 0) {
    throw std::runtime_error("profiler: setitimer failed");
  }
}

void stop_sampling() {
  itimerval off{};
  setitimer(ITIMER_PROF, &off, nullptr);
}

double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

const std::vector<std::string>& layers() {
  static const std::vector<std::string> names = {
      "sim.scheduler", "sim.link", "sim.node",   "flid",      "core.delta",
      "core.sigma",    "crypto",   "mcast",      "tcp",       "cm",
      "population",    "adversary", "exp",       "obs",       "runtime",
      "unattributed"};
  return names;
}

std::vector<std::uint64_t> samples_by_layer() {
  const std::vector<std::string>& names = layers();
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < names.size(); ++i) index[names[i]] = i;
  const std::size_t unattributed = names.size() - 1;

  const std::vector<symbol> symbols = binary_symbols();
  const auto libraries = library_ranges();
  std::vector<int> layer_cache(symbols.size(), -1);
  std::vector<std::uint64_t> counts(names.size(), 0);
  const std::size_t n =
      std::min(g_next_sample.load(std::memory_order_relaxed), sample_capacity);
  for (std::size_t s = 0; s < n; ++s) {
    const std::uintptr_t pc = g_samples[s];
    auto it = std::upper_bound(
        symbols.begin(), symbols.end(), pc,
        [](std::uintptr_t v, const symbol& sym) { return v < sym.lo; });
    if (it != symbols.begin() && pc < std::prev(it)->hi) {
      const auto k = static_cast<std::size_t>(std::prev(it) - symbols.begin());
      if (layer_cache[k] < 0) {
        layer_cache[k] = static_cast<int>(
            index.at(layer_of_symbol(demangle(symbols[k].name))));
      }
      ++counts[static_cast<std::size_t>(layer_cache[k])];
      continue;
    }
    const bool in_library =
        std::any_of(libraries.begin(), libraries.end(), [pc](const auto& r) {
          return pc >= r.first && pc < r.second;
        });
    ++counts[in_library ? index.at("runtime") : unattributed];
  }
  return counts;
}

}  // namespace perfbench::prof

// Global allocation functions. libstdc++'s array and nothrow forms forward
// to the throwing forms replaced here, and its array deallocation functions
// to the plain ones below.
void* operator new(std::size_t n) { return perfbench::prof::allocate(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return perfbench::prof::allocate_aligned(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
