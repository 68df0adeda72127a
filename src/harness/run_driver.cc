#include "src/harness/run_driver.h"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace clof::harness {

RunDriver::RunDriver(const RunSetup& setup)
    : setup_(setup), engine_(setup.machine->topology, setup.machine->platform) {
  if (!(setup.duration_ms > 0.0 && std::isfinite(setup.duration_ms))) {
    throw std::invalid_argument(std::string(setup.caller) +
                                ": duration_ms must be positive and finite");
  }
  if (setup.num_threads < 1 || setup.num_threads > setup.machine->topology.num_cpus()) {
    throw std::invalid_argument("num_threads out of range for machine");
  }
  if (!setup.cpu_assignment.empty() &&
      static_cast<int>(setup.cpu_assignment.size()) < setup.num_threads) {
    throw std::invalid_argument("cpu_assignment shorter than num_threads");
  }
  end_ = sim::PsFromNs(setup.duration_ms * 1e6);
  engine_.SetEventSink(setup.trace_sink);
  if (setup.watchdog.Enabled()) {
    engine_.SetWatchdog(setup.watchdog);
  }
  if (setup.fault.AnyEnabled()) {
    injector_ = std::make_unique<fault::Injector>(setup.fault, setup.seed,
                                                  setup.machine->topology.num_cpus());
    engine_.SetFaultHook(injector_.get());
  }
}

int RunDriver::AddLock(std::unique_ptr<Lock> lock) {
  locks_.push_back({std::move(lock), {}});
  locks_.back().contexts.resize(static_cast<size_t>(setup_.num_threads));
  return static_cast<int>(locks_.size()) - 1;
}

sim::Time RunDriver::StopTime(int thread) const {
  const fault::ChurnSpec& churn = setup_.fault.churn;
  if (churn.enabled) {
    runtime::Xoshiro256 rng(setup_.fault.seed * 0x9e3779b97f4a7c15ull + 0xC0FFEEull +
                            static_cast<uint64_t>(thread));
    if (rng.NextDouble() < churn.stop_fraction) {
      return static_cast<sim::Time>(static_cast<double>(end_) * churn.stop_point);
    }
  }
  return end_;
}

void RunDriver::Run(const ThreadBody& thread_body, Hammer hammer) {
  for (int t = 0; t < setup_.num_threads; ++t) {
    const int cpu = setup_.cpu_assignment.empty() ? t : setup_.cpu_assignment[t];
    engine_.Spawn(cpu, [this, &thread_body, t] {
      runtime::Xoshiro256 rng(setup_.seed * 0x9e3779b97f4a7c15ull + t);
      thread_body(t, rng);
    });
  }
  // Interference fibers come after the harness threads, so thread ids 0..num_threads-1
  // keep meaning "harness thread t". They take no lock, so they cannot deadlock the run.
  const fault::FaultPlan& plan = setup_.fault;
  runtime::Xoshiro256 place_rng(plan.seed ^ 0xa24baed4963ee407ull);
  for (int i = 0; plan.interference.enabled && i < plan.interference.threads; ++i) {
    const auto cpus = static_cast<uint64_t>(setup_.machine->topology.num_cpus());
    engine_.Spawn(static_cast<int>(place_rng.NextBounded(cpus)), [this, &plan, &hammer, i] {
      runtime::Xoshiro256 rng(plan.seed * 0x9e3779b97f4a7c15ull + 0xBADCAFEull +
                              static_cast<uint64_t>(i));
      auto& eng = sim::Engine::Current();
      while (eng.Now() < end_) {
        eng.Work(plan.interference.gap_ns);
        hammer(rng, plan.interference.lines_per_burst);
      }
    });
  }
  engine_.Run();
}

}  // namespace clof::harness
