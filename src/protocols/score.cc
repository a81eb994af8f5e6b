#include "protocols/score.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace paai::protocols {

ScoreTable::ScoreTable(std::size_t num_links, double traversals,
                       double probe_extra)
    : s_(num_links, 0),
      traversals_(traversals),
      probe_extra_(probe_extra),
      win_s_(num_links, 0),
      ledger_(num_links, kDefaultWindowWidth) {
  if (num_links == 0 || traversals <= 0.0 || probe_extra < 0.0) {
    throw std::invalid_argument("ScoreTable: bad construction parameters");
  }
  auto& reg = obs::MetricsRegistry::global();
  obs_updates_ = reg.counter("proto.score.updates");
  obs_blames_ = reg.counter("proto.score.blames");
}

double ScoreTable::effective_traversals() const {
  if (n_ == 0 || probe_extra_ == 0.0) return traversals_;
  return traversals_ + probe_extra_ * static_cast<double>(probes_) /
                           static_cast<double>(n_);
}

void ScoreTable::set_blame(const BlameSpec& spec) {
  if (spec.w != ledger_.width()) {
    if (n_ != 0) {
      throw std::logic_error(
          "ScoreTable::set_blame: window width change mid-run");
    }
    ledger_.set_width(spec.w);
  }
  blame_ = spec;
}

void ScoreTable::roll_window() {
  if (n_ % ledger_.width() != 0) return;
  // Close the window: per-link sliding estimate from this window's blame
  // bins, inverted through the *current* effective exposure (replayed
  // identically by the stream engine, which sees the same counters).
  const double w = static_cast<double>(ledger_.width());
  const double inv_t = 1.0 / effective_traversals();
  std::vector<double> tw(s_.size());
  for (std::size_t i = 0; i < s_.size(); ++i) {
    const double b = static_cast<double>(win_s_[i]) / w;
    tw[i] = 1.0 - std::pow(1.0 - std::min(b, 1.0), inv_t);
  }
  ledger_.finalize(tw);
  std::fill(win_s_.begin(), win_s_.end(), 0ULL);
}

void ScoreTable::add_clean() {
  ++n_;
  obs_updates_.add();
  roll_window();
}

void ScoreTable::blame(std::size_t link) {
  if (link >= s_.size()) {
    throw std::out_of_range("ScoreTable::blame: link index out of range");
  }
  ++n_;
  ++s_[link];
  ++win_s_[link];
  obs_updates_.add();
  obs_blames_.add();
  roll_window();
}

double ScoreTable::theta(std::size_t link) const {
  if (n_ == 0) return 0.0;
  const double blame_rate =
      static_cast<double>(s_[link]) / static_cast<double>(n_);
  // Invert 1 - (1-theta)^t = blame_rate.
  return 1.0 - std::pow(1.0 - std::min(blame_rate, 1.0),
                        1.0 / effective_traversals());
}

std::vector<double> ScoreTable::thetas() const {
  std::vector<double> out(s_.size());
  for (std::size_t i = 0; i < s_.size(); ++i) out[i] = theta(i);
  return out;
}

bool ScoreTable::margin_convicts(std::size_t link, double threshold) const {
  // Conviction requires the estimate to clear the threshold by one
  // standard error — the operational form of the paper's "converged
  // condition" (§7: the observed rate approaches its true value within a
  // small uncertainty interval before decisions are made). Without the
  // margin, early small-sample noise convicts honest links.
  const double n = static_cast<double>(n_);
  const double b = static_cast<double>(s_[link]) / n;
  const double sd_b = std::sqrt(std::max(b, 1.0 / n) * (1.0 - b) / n);
  const double sd_theta = sd_b / effective_traversals();
  return theta(link) - sd_theta > threshold;
}

std::vector<std::size_t> ScoreTable::convicted(double threshold) const {
  std::vector<std::size_t> out;
  if (n_ == 0) return out;
  for (std::size_t i = 0; i < s_.size(); ++i) {
    bool guilty = false;
    switch (blame_.mode) {
      case BlameSpec::Mode::kMargin:
        guilty = margin_convicts(i, threshold);
        break;
      case BlameSpec::Mode::kPersistent:
        // Persistence mode: the K-repetition requirement replaces the
        // standard-error margin as the anti-noise gate. An honest link
        // needs BOTH K first-failing-hop blames AND an above-threshold
        // estimate to be falsely convicted (bench_robustness section A
        // checks it never is); an adversary riding just inside the
        // margin no longer escapes.
        guilty = s_[i] >= blame_.k && theta(i) > threshold;
        break;
      case BlameSpec::Mode::kWindowed:
        // A single flagrant window plus an above-threshold cumulative
        // estimate is burst evidence the margin rule would dilute away.
        guilty = margin_convicts(i, threshold) ||
                 (ledger_.flagrant_windows(i) >= 1 && theta(i) > threshold);
        break;
      case BlameSpec::Mode::kHybrid:
        // Windowed clauses, plus the streak clause: >= K consecutive hot
        // windows with the cumulative estimate above the hot bar. The
        // cumulative floor is what separates a colluder (theta ~ 0.015+)
        // from benign loss churn whose windows also run hot for a while
        // but whose lifetime average stays below kWindowHighTheta.
        guilty = margin_convicts(i, threshold) ||
                 (ledger_.flagrant_windows(i) >= 1 && theta(i) > threshold) ||
                 (ledger_.max_streak(i) >= blame_.k &&
                  theta(i) > kWindowHighTheta);
        break;
    }
    if (guilty) out.push_back(i);
  }
  return out;
}

void ScoreTable::restore(const std::vector<std::uint64_t>& s, std::uint64_t n,
                         std::uint64_t probes) {
  if (s.size() != s_.size()) {
    throw std::invalid_argument("ScoreTable::restore: link count mismatch");
  }
  s_ = s;
  n_ = n;
  probes_ = probes;
  // Legacy snapshots carry no window state; start from a clean ledger and
  // let restore_window() (new snapshots) rebuild the real one.
  std::fill(win_s_.begin(), win_s_.end(), 0ULL);
  ledger_.reset();
}

void ScoreTable::restore_window(
    const std::vector<std::uint64_t>& bins, std::uint64_t completed,
    const std::vector<std::uint64_t>& cur_streak,
    const std::vector<std::uint64_t>& max_streak,
    const std::vector<std::uint64_t>& flagrant,
    const std::vector<double>& max_theta_w,
    const std::vector<std::vector<double>>& recent) {
  if (bins.size() != win_s_.size()) {
    throw std::invalid_argument("ScoreTable::restore_window: shape mismatch");
  }
  win_s_ = bins;
  ledger_.restore(completed, cur_streak, max_streak, flagrant, max_theta_w,
                  recent);
}

void ScoreTable::reset() {
  std::fill(s_.begin(), s_.end(), 0ULL);
  n_ = 0;
  probes_ = 0;
  std::fill(win_s_.begin(), win_s_.end(), 0ULL);
  ledger_.reset();
}

Paai2ScoreTable::Paai2ScoreTable(std::size_t num_links)
    : s_(num_links, 0),
      sel_n_(num_links + 1, 0),
      sel_f_(num_links + 1, 0),
      win_sel_n_(num_links + 1, 0),
      win_sel_f_(num_links + 1, 0),
      ledger_(num_links, kDefaultWindowWidth) {
  if (num_links == 0) {
    throw std::invalid_argument("Paai2ScoreTable: need at least one link");
  }
  auto& reg = obs::MetricsRegistry::global();
  obs_updates_ = reg.counter("proto.score.updates");
  obs_blames_ = reg.counter("proto.score.blames");
}

void Paai2ScoreTable::set_blame(const BlameSpec& spec) {
  if (spec.w != ledger_.width()) {
    if (probes_ != 0) {
      throw std::logic_error(
          "Paai2ScoreTable::set_blame: window width change mid-run");
    }
    ledger_.set_width(spec.w);
  }
  blame_ = spec;
}

void Paai2ScoreTable::roll_window() {
  if (probes_ % ledger_.width() != 0) return;
  // Windowed prefix-difference estimator: same shape as thetas(), but the
  // selection bins are this window's only. psi and the traversal exponent
  // stay cumulative — they calibrate exposure, not the time-local rate.
  const std::size_t d = s_.size();
  const double psi = observed_e2e_rate();
  std::vector<double> q(d + 1, 0.0);
  for (std::size_t e = 1; e <= d; ++e) {
    if (win_sel_n_[e] == 0) {
      q[e] = q[e - 1];
      continue;
    }
    const double cond_fail = static_cast<double>(win_sel_f_[e]) /
                             static_cast<double>(win_sel_n_[e]);
    q[e] = std::max(q[e - 1], psi * cond_fail);
  }
  const double traversals = 1.0 + 2.0 * psi;
  std::vector<double> tw(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    const double denom = 1.0 - q[j];
    const double g = denom > 0.0 ? (q[j + 1] - q[j]) / denom : 0.0;
    tw[j] = 1.0 - std::pow(1.0 - std::clamp(g, 0.0, 1.0), 1.0 / traversals);
  }
  ledger_.finalize(tw);
  std::fill(win_sel_n_.begin(), win_sel_n_.end(), 0ULL);
  std::fill(win_sel_f_.begin(), win_sel_f_.end(), 0ULL);
}

void Paai2ScoreTable::add_data_packet() { ++data_packets_; }

void Paai2ScoreTable::add_probe(std::size_t selected, bool prefix_failed) {
  if (selected < 1 || selected > s_.size()) {
    throw std::out_of_range("Paai2ScoreTable::add_probe: bad selection");
  }
  ++probes_;
  ++sel_n_[selected];
  ++win_sel_n_[selected];
  obs_updates_.add();
  if (prefix_failed) {
    ++sel_f_[selected];
    ++win_sel_f_[selected];
    // The paper's scoring rule: +1 to every link in [l_0, l_{e-1}].
    for (std::size_t j = 0; j < selected; ++j) ++s_[j];
    obs_blames_.add();
  }
  roll_window();
}

double Paai2ScoreTable::observed_e2e_rate() const {
  if (data_packets_ == 0) return 0.0;
  return static_cast<double>(probes_) / static_cast<double>(data_packets_);
}

std::vector<double> Paai2ScoreTable::thetas() const {
  const std::size_t d = s_.size();
  std::vector<double> out(d, 0.0);
  if (data_packets_ == 0) return out;
  const double psi = observed_e2e_rate();

  // Unconditional prefix-failure probabilities q_e; carry forward when a
  // selection index has no observations yet.
  std::vector<double> q(d + 1, 0.0);
  for (std::size_t e = 1; e <= d; ++e) {
    if (sel_n_[e] == 0) {
      q[e] = q[e - 1];
      continue;
    }
    const double cond_fail = static_cast<double>(sel_f_[e]) /
                             static_cast<double>(sel_n_[e]);
    q[e] = std::max(q[e - 1], psi * cond_fail);
  }

  // Per-link cycle rate from adjacent prefix differences, then down to a
  // per-traversal rate. The data packet always crosses a prefix link, but
  // the probe and the report only exist when a probe fired (probability
  // psi), so one monitored cycle exposes a prefix link to ~(1 + 2 psi)
  // traversals.
  const double traversals = 1.0 + 2.0 * psi;
  for (std::size_t j = 0; j < d; ++j) {
    const double denom = 1.0 - q[j];
    const double g = denom > 0.0 ? (q[j + 1] - q[j]) / denom : 0.0;
    out[j] = 1.0 - std::pow(1.0 - std::clamp(g, 0.0, 1.0), 1.0 / traversals);
  }
  return out;
}

bool Paai2ScoreTable::margin_convicts(std::size_t link, double threshold,
                                      const std::vector<double>& th) const {
  // Same two-standard-error evidence rule as ScoreTable. The per-link
  // estimate comes from the difference of two prefix-failure estimates,
  // each a proportion over the probes whose selection hit that index, so
  // the standard error combines both selection bins (scaled by psi, since
  // q_e = psi * conditional failure rate).
  const double psi = observed_e2e_rate();
  const double traversals = 1.0 + 2.0 * psi;
  const double n_hi = static_cast<double>(sel_n_[link + 1]);
  if (n_hi < 1.0) return false;
  // q_0 is exactly zero; q_j for j >= 1 carries its own bin's noise.
  const double inv_lo =
      link == 0 ? 0.0
                : 1.0 / std::max(1.0, static_cast<double>(sel_n_[link]));
  const double sd_q = psi * 0.5 * std::sqrt(inv_lo + 1.0 / n_hi);
  const double margin = sd_q / traversals;
  return th[link] - margin > threshold;
}

std::vector<std::size_t> Paai2ScoreTable::convicted(double threshold) const {
  const std::vector<double> th = thetas();
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < th.size(); ++j) {
    bool guilty = false;
    switch (blame_.mode) {
      case BlameSpec::Mode::kMargin:
        guilty = margin_convicts(j, threshold, th);
        break;
      case BlameSpec::Mode::kPersistent:
        // Interval scores are PAAI-2's per-link blame tallies.
        guilty = s_[j] >= blame_.k && th[j] > threshold;
        break;
      case BlameSpec::Mode::kWindowed:
        guilty = margin_convicts(j, threshold, th) ||
                 (ledger_.flagrant_windows(j) >= 1 && th[j] > threshold);
        break;
      case BlameSpec::Mode::kHybrid:
        guilty = margin_convicts(j, threshold, th) ||
                 (ledger_.flagrant_windows(j) >= 1 && th[j] > threshold) ||
                 (ledger_.max_streak(j) >= blame_.k &&
                  th[j] > kWindowHighTheta);
        break;
    }
    if (guilty) out.push_back(j);
  }
  return out;
}

void Paai2ScoreTable::restore(const std::vector<std::uint64_t>& s,
                              const std::vector<std::uint64_t>& sel_n,
                              const std::vector<std::uint64_t>& sel_f,
                              std::uint64_t data_packets,
                              std::uint64_t probes) {
  if (s.size() != s_.size() || sel_n.size() != sel_n_.size() ||
      sel_f.size() != sel_f_.size()) {
    throw std::invalid_argument("Paai2ScoreTable::restore: shape mismatch");
  }
  s_ = s;
  sel_n_ = sel_n;
  sel_f_ = sel_f;
  data_packets_ = data_packets;
  probes_ = probes;
  std::fill(win_sel_n_.begin(), win_sel_n_.end(), 0ULL);
  std::fill(win_sel_f_.begin(), win_sel_f_.end(), 0ULL);
  ledger_.reset();
}

void Paai2ScoreTable::restore_window(
    const std::vector<std::uint64_t>& sel_n_bins,
    const std::vector<std::uint64_t>& sel_f_bins, std::uint64_t completed,
    const std::vector<std::uint64_t>& cur_streak,
    const std::vector<std::uint64_t>& max_streak,
    const std::vector<std::uint64_t>& flagrant,
    const std::vector<double>& max_theta_w,
    const std::vector<std::vector<double>>& recent) {
  if (sel_n_bins.size() != win_sel_n_.size() ||
      sel_f_bins.size() != win_sel_f_.size()) {
    throw std::invalid_argument(
        "Paai2ScoreTable::restore_window: shape mismatch");
  }
  win_sel_n_ = sel_n_bins;
  win_sel_f_ = sel_f_bins;
  ledger_.restore(completed, cur_streak, max_streak, flagrant, max_theta_w,
                  recent);
}

void Paai2ScoreTable::reset() {
  std::fill(s_.begin(), s_.end(), 0ULL);
  std::fill(sel_n_.begin(), sel_n_.end(), 0ULL);
  std::fill(sel_f_.begin(), sel_f_.end(), 0ULL);
  data_packets_ = 0;
  probes_ = 0;
  std::fill(win_sel_n_.begin(), win_sel_n_.end(), 0ULL);
  std::fill(win_sel_f_.begin(), win_sel_f_.end(), 0ULL);
  ledger_.reset();
}

FlScoreTable::FlScoreTable(std::size_t num_links)
    : acc_(num_links + 1, 0.0),
      win_acc_(num_links + 1, 0.0),
      ledger_(num_links, kDefaultWindowWidth) {
  if (num_links == 0) {
    throw std::invalid_argument("FlScoreTable: need at least one link");
  }
}

void FlScoreTable::set_blame(const BlameSpec& spec) {
  if (spec.w != ledger_.width()) {
    if (intervals_reported_ != 0) {
      throw std::logic_error(
          "FlScoreTable::set_blame: window width change mid-run");
    }
    ledger_.set_width(spec.w);
  }
  blame_ = spec;
}

void FlScoreTable::roll_window() {
  if (intervals_reported_ % ledger_.width() != 0) return;
  const std::size_t d = num_links();
  std::vector<double> tw(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    if (win_acc_[j] <= 0.0) continue;
    tw[j] = std::max(0.0, 1.0 - win_acc_[j + 1] / win_acc_[j]);
  }
  ledger_.finalize(tw);
  std::fill(win_acc_.begin(), win_acc_.end(), 0.0);
}

void FlScoreTable::add_count(std::size_t node, std::uint64_t count) {
  if (node >= acc_.size()) {
    throw std::out_of_range("FlScoreTable::add_count: node index out of range");
  }
  acc_[node] += static_cast<double>(count);
  win_acc_[node] += static_cast<double>(count);
}

void FlScoreTable::interval_reported() {
  ++intervals_reported_;
  roll_window();
}

std::vector<double> FlScoreTable::thetas() const {
  const std::size_t d = num_links();
  std::vector<double> out(d, 0.0);
  for (std::size_t j = 0; j < d; ++j) {
    if (acc_[j] <= 0.0) continue;
    out[j] = std::max(0.0, 1.0 - acc_[j + 1] / acc_[j]);
  }
  return out;
}

bool FlScoreTable::margin_convicts(std::size_t link, double threshold,
                                   const std::vector<double>& th) const {
  // One-standard-error evidence rule on a ratio of Poisson-ish sampled
  // counts: Var(S_{j+1}/S_j) ~ 2 S_{j+1} / S_j^2 (both counts carry
  // sampling noise); the +1 keeps a total blackhole (S_{j+1} = 0)
  // convictable with a finite margin.
  const double sj = acc_[link];
  if (sj < 1.0) return false;
  const double sd = std::sqrt(2.0 * acc_[link + 1] + 1.0) / sj;
  return th[link] - sd > threshold;
}

std::vector<std::size_t> FlScoreTable::convicted(double threshold) const {
  const std::vector<double> th = thetas();
  std::vector<std::size_t> out;
  for (std::size_t j = 0; j < th.size(); ++j) {
    bool guilty = false;
    switch (blame_.mode) {
      case BlameSpec::Mode::kMargin:
        guilty = margin_convicts(j, threshold, th);
        break;
      case BlameSpec::Mode::kPersistent:
        // The sampled-count deficit at this hop plays the blame-tally
        // role: at least K sampled packets must have vanished here.
        guilty = acc_[j] - acc_[j + 1] >= static_cast<double>(blame_.k) &&
                 th[j] > threshold;
        break;
      case BlameSpec::Mode::kWindowed:
        guilty = margin_convicts(j, threshold, th) ||
                 (ledger_.flagrant_windows(j) >= 1 && th[j] > threshold);
        break;
      case BlameSpec::Mode::kHybrid:
        guilty = margin_convicts(j, threshold, th) ||
                 (ledger_.flagrant_windows(j) >= 1 && th[j] > threshold) ||
                 (ledger_.max_streak(j) >= blame_.k &&
                  th[j] > kWindowHighTheta);
        break;
    }
    if (guilty) out.push_back(j);
  }
  return out;
}

double FlScoreTable::observed_e2e_rate() const {
  if (acc_[0] <= 0.0) return 0.0;
  return std::max(0.0, 1.0 - acc_.back() / acc_[0]);
}

void FlScoreTable::restore(const std::vector<double>& acc,
                           std::uint64_t intervals_reported,
                           std::uint64_t intervals_lost) {
  if (acc.size() != acc_.size()) {
    throw std::invalid_argument("FlScoreTable::restore: shape mismatch");
  }
  acc_ = acc;
  intervals_reported_ = intervals_reported;
  intervals_lost_ = intervals_lost;
  std::fill(win_acc_.begin(), win_acc_.end(), 0.0);
  ledger_.reset();
}

void FlScoreTable::restore_window(
    const std::vector<double>& counts, std::uint64_t completed,
    const std::vector<std::uint64_t>& cur_streak,
    const std::vector<std::uint64_t>& max_streak,
    const std::vector<std::uint64_t>& flagrant,
    const std::vector<double>& max_theta_w,
    const std::vector<std::vector<double>>& recent) {
  if (counts.size() != win_acc_.size()) {
    throw std::invalid_argument("FlScoreTable::restore_window: shape mismatch");
  }
  win_acc_ = counts;
  ledger_.restore(completed, cur_streak, max_streak, flagrant, max_theta_w,
                  recent);
}

void FlScoreTable::reset() {
  std::fill(acc_.begin(), acc_.end(), 0.0);
  intervals_reported_ = 0;
  intervals_lost_ = 0;
  std::fill(win_acc_.begin(), win_acc_.end(), 0.0);
  ledger_.reset();
}

}  // namespace paai::protocols
