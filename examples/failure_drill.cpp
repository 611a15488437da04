// Example: a disk-failure drill under energy management.
//
//   ./failure_drill [hours]
//
// Runs the OLTP workload under Hibernator, kills a disk a third of the way
// in, replaces it an hour later, and reports the degraded-mode and rebuild
// statistics alongside the usual energy/latency numbers — demonstrating that
// the energy machinery and RAID recovery coexist.
#include <cstdio>
#include <cstdlib>

#include "src/array/array.h"
#include "src/harness/experiment.h"
#include "src/hibernator/hibernator_policy.h"
#include "src/sim/simulator.h"
#include "src/trace/synthetic.h"
#include "src/util/table.h"

int main(int argc, char** argv) {
  double hours = argc > 1 ? std::atof(argv[1]) : 6.0;

  hib::Simulator sim;
  hib::ArrayParams ap;
  ap.num_disks = 8;
  ap.group_width = 4;
  ap.disk = hib::MakeUltrastar36Z15MultiSpeed(5);
  ap.data_fraction = 0.2;
  hib::ArrayController array(&sim, ap);

  hib::HibernatorParams hp;
  hp.goal_ms = hib::Ms(20.0);
  hp.epoch_ms = hib::Hours(1.0);
  hib::HibernatorPolicy policy(hp);
  policy.Attach(&sim, &array);

  hib::OltpWorkloadParams wp;
  wp.address_space_sectors = ap.DataSectors();
  wp.duration_ms = hib::Hours(hours);
  wp.peak_iops = 80.0;
  wp.trough_iops = 40.0;
  hib::OltpWorkload workload(wp);

  hib::TraceInjector injector(&sim, &array, &workload);
  injector.Start();

  // The drill: fail disk 2 at t = hours/3, replace one hour later.
  const int kVictim = 2;
  hib::SimTime fail_at = hib::Hours(hours / 3.0);
  hib::SimTime rebuilt_at = hib::Ms(-1.0);
  sim.ScheduleAt(fail_at, [&] {
    std::printf("[%.2fh] disk %d FAILED (group %d now degraded)\n",
                sim.Now() / hib::Hours(1.0), kVictim, kVictim / ap.group_width);
    array.FailDisk(kVictim);
  });
  sim.ScheduleAt(fail_at + hib::Hours(1.0), [&] {
    std::printf("[%.2fh] replacement installed, rebuild started\n",
                sim.Now() / hib::Hours(1.0));
    array.ReplaceDisk(kVictim, [&] {
      rebuilt_at = sim.Now();
      std::printf("[%.2fh] rebuild complete, disk %d back in service\n",
                  sim.Now() / hib::Hours(1.0), kVictim);
    });
  });

  sim.RunUntil(hib::Hours(hours) + hib::Seconds(30.0));
  policy.Finish();

  const hib::ArrayStats& st = array.stats();
  hib::Table table({"metric", "value"});
  table.NewRow().Add("requests").Add(st.total_responses);
  table.NewRow().Add("mean response (ms)").Add(st.response_ms.mean(), 2);
  table.NewRow().Add("goal met").Add(
      hib::Ms(st.response_ms.mean()) <= hp.goal_ms * 1.05 ? "yes" : "NO");
  table.NewRow().Add("degraded reads").Add(st.degraded_reads);
  table.NewRow().Add("parity-only writes").Add(st.parity_only_writes);
  table.NewRow().Add("lost accesses").Add(st.lost_accesses);
  table.NewRow().Add("extents rebuilt").Add(st.rebuilt_extents);
  table.NewRow().Add("rebuild duration (h)").Add(
      rebuilt_at > hib::SimTime{}
          ? (rebuilt_at - fail_at - hib::Hours(1.0)) / hib::Hours(1.0)
          : -1.0,
      2);
  table.NewRow().Add("energy (kJ)").Add(array.TotalEnergy().Total() / 1000.0, 1);
  table.NewRow().Add("epochs / boosts").Add(std::to_string(policy.epochs_completed()) + " / " +
                                            std::to_string(policy.boosts()));
  std::printf("\n%s", table.ToString().c_str());
  return 0;
}
