#ifndef P2PDT_P2PDMT_EVALUATION_H_
#define P2PDT_P2PDMT_EVALUATION_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/csv.h"
#include "common/status.h"
#include "p2psim/simulator.h"

namespace p2pdt {

/// Deterministic k-of-n sample without replacement, sorted ascending.
///
/// The draw uses a local Rng seeded from `seed` alone, so the same
/// (n, k, seed) triple yields the same sample on every run, at every thread
/// count, regardless of what any other RNG in the process has consumed.
/// This is what lets sampled evaluation at 100k peers (a requester pool
/// instead of the full network) stay a pure function of the experiment
/// seed. k >= n returns the full range [0, n).
std::vector<std::size_t> DeterministicSample(std::size_t n, std::size_t k,
                                             uint64_t seed);

/// Periodic evaluation scheduling — P2PDMT's "frequency and timings of
/// evaluations" knob (paper Sec. 2). Registers measurement callbacks that
/// fire at configured simulated times (or on a fixed period) and collects
/// the resulting rows into a time series exportable as CSV.
///
/// The callback returns one row of named values; rows are stamped with the
/// simulated time they were taken at. Typical use: measure accuracy and
/// online-peer count every N simulated seconds while churn runs (see
/// examples/simulation_campaign for the manual version of this loop).
class EvaluationSchedule {
 public:
  /// `metric_names` labels the values the callback returns (sans the
  /// leading "time" column, which is added automatically).
  EvaluationSchedule(Simulator& sim, std::vector<std::string> metric_names);

  /// The measurement hook; invoked at each firing. Must return exactly
  /// metric_names.size() values (rows of other widths are recorded as
  /// all-NaN and counted in dropped_rows()).
  using Probe = std::function<std::vector<double>()>;

  /// Schedules firings at each absolute simulated time in `times`.
  void ScheduleAt(std::vector<SimTime> times, Probe probe);

  /// Schedules `count` firings every `period` seconds, starting at
  /// Now() + period.
  void SchedulePeriodic(double period, std::size_t count, Probe probe);

  /// Rows collected so far; row[0] is the simulated timestamp.
  const std::vector<std::vector<double>>& rows() const { return rows_; }
  std::size_t dropped_rows() const { return dropped_; }

  /// Renders the time series as CSV (header: time, metric names...).
  CsvWriter ToCsv() const;
  Status WriteCsv(const std::string& path) const;

 private:
  void Fire(const Probe& probe);

  Simulator& sim_;
  std::vector<std::string> metric_names_;
  std::vector<std::vector<double>> rows_;
  std::size_t dropped_ = 0;
};

}  // namespace p2pdt

#endif  // P2PDT_P2PDMT_EVALUATION_H_
