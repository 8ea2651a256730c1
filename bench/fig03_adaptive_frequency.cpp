// Fig. 3 — Behavior of the adaptive transmission algorithm: the actual
// transmission frequency achieved by the drift-plus-penalty rule tracks the
// required frequency B across several orders of magnitude, on all three
// datasets.
//
// Paper parameters: V0 = 1e-12, gamma = 0.65 (overridable via --v0/--gamma).
#include "bench_util.hpp"

#include "collect/fleet_collector.hpp"

int main(int argc, char** argv) {
  using namespace resmon;
  const Args args(argc, argv);
  bench::banner("Fig. 3",
                "Required vs actual transmission frequency of the adaptive "
                "algorithm (drift-plus-penalty, eq. (6)-(9))");

  const double v0 = args.get_double("v0", 1e-12);
  const double gamma = args.get_double("gamma", 0.65);

  // One registry across the whole sweep: the aggregate resmon_collect_*
  // series then cover every (dataset, B) cell (--metrics-out dumps them).
  obs::MetricsRegistry registry;

  Table table({"dataset", "required B", "actual freq"}, 4);
  for (const std::string& name : bench::datasets_from_args(args)) {
    trace::SyntheticProfile profile = bench::profile_from_args(args, name);
    const trace::InMemoryTrace t =
        trace::generate(profile, args.get_int("seed", 1));
    for (const double b :
         {0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5}) {
      collect::FleetCollector fleet(
          t,
          {.kind = collect::PolicyKind::kAdaptive,
           .max_frequency = b,
           .v0 = v0,
           .gamma = gamma},
          {}, nullptr, &registry);
      for (std::size_t step = 0; step < t.num_steps(); ++step) {
        fleet.step(step);
      }
      table.add_row({name, b, fleet.average_actual_frequency()});
    }
  }
  bench::emit(table, args);
  bench::emit_observability(args, registry);
  std::cout << "\nExpected shape: actual ~= required across the whole range "
               "(the virtual queue enforces the budget with equality).\n";
  return 0;
}
