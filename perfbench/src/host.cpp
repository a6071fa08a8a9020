#include "host.hpp"

#include <cstdio>
#include <cstring>
#include <thread>

#include "parallel/thread_pool.hpp"
#include "sim/batch_eval.hpp"
#include "sim/evaluator.hpp"
#include "sim/schedule_eval.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {
namespace {

namespace sim = match::sim;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    unsigned regs[12] = {};
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof(regs) + 1] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const auto first = model.find_first_not_of(' ');
    const auto last = model.find_last_not_of(' ');
    if (first != std::string::npos) return model.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::string isa_flags() {
  std::string flags;
#if defined(__x86_64__) || defined(__i386__)
  const auto add = [&flags](bool on, const char* name) {
    if (!on) return;
    if (!flags.empty()) flags += ',';
    flags += name;
  };
  add(__builtin_cpu_supports("sse4.2"), "sse4.2");
  add(__builtin_cpu_supports("avx2"), "avx2");
  add(__builtin_cpu_supports("fma"), "fma");
  add(__builtin_cpu_supports("avx512f"), "avx512f");
#elif defined(__aarch64__)
  flags = "neon";
#endif
  return flags.empty() ? "none" : flags;
}

}  // namespace

std::map<std::string, std::string> host_fingerprint(const Plan& plan,
                                                     const std::string& git_sha) {
  // The resolved backend depends on the instance (an asymmetric comm
  // matrix pins the TIG kernel to scalar), so resolve on the plan's own.
  std::string tig_backend = "unused";
  std::string dag_backend = "unused";
  for (const auto& inst : plan.instances) {
    const sim::Platform platform = inst->make_platform();
    if (inst->is_tig() && tig_backend == "unused") {
      const sim::CostEvaluator eval(inst->tig().tig, platform);
      tig_backend = sim::BatchEvaluator(eval).backend_name();
    } else if (inst->is_dag() && dag_backend == "unused") {
      dag_backend = sim::ScheduleEvaluator(inst->dag().dag, platform).backend_name();
    }
  }
#if defined(MATCH_HAVE_OPENMP)
  const char* openmp = "on";
#else
  const char* openmp = "off";
#endif
  return {
      {"cpu", cpu_model()},
      {"isa", isa_flags()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"tig_backend", tig_backend},
      {"dag_backend", dag_backend},
      {"openmp", openmp},
      {"pool_threads",
       std::to_string(match::parallel::ThreadPool::global().thread_count())},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"git_sha", git_sha.empty() ? "unknown" : git_sha},
  };
}

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned char>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace perfbench
