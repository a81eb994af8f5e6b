// Burst-aware windowed detection state shared by the three score tables
// (ScoreTable / Paai2ScoreTable / FlScoreTable).
//
// The cumulative estimators in score.h answer "what fraction of this
// link's traffic is lost overall?" — which is exactly the statistic an
// adaptive colluder games: by dropping only inside an honest link's
// Gilbert-Elliott bursts it keeps its cumulative theta inside the noise
// margin (bench_robustness frontier, collude-r10). The windowed layer
// keeps a second, time-local view: the monitored-unit axis is cut into
// fixed-width windows of W units, each closed window yields a
// per-link sliding estimate theta_w, and a WindowLedger accumulates
//
//   - how many closed windows were "hot"  (theta_w > kWindowHighTheta)
//     in a row (current streak + a monotone max-streak latch),
//   - how many were "flagrant"            (theta_w > kWindowFlagrantTheta),
//   - the largest theta_w ever seen (the burstiness numerator),
//   - a short ring of recent theta_w values for forensics.
//
// Multi-level conviction (BlameSpec, --blame=...): the cumulative margin
// rule stays the baseline; windowed/hybrid modes add clauses that fire
// on time-concentrated evidence whose cumulative trace rides inside the
// margin. The ledger is maintained unconditionally — margin-mode
// verdicts never read it, which is what makes
// `--blame=margin` byte-identical to the pre-window code
// (tests/stream_test.cc WindowedNeverAffectsMarginMode).
//
// Contracts: every ledger mutation is driven by the same table mutators
// the forensic event stream replays (src/stream bit-identity); the
// ledger's counters are plain u64s/doubles keyed by window index, so
// snapshots (paai.state.v1 "window" objects) restore them losslessly.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace paai::protocols {

/// Windows whose theta_w clears this are "hot": individually unremarkable
/// but suspicious in a run. Sits above the decision threshold (0.018 is
/// the paper-calibrated midpoint of [rho=0.01, alpha=0.03]) minus the
/// small-sample slack a W=192 window carries, and above every honest
/// link's cumulative estimate in the benign sweep (max observed 0.0134).
inline constexpr double kWindowHighTheta = 0.014;

/// Windows whose theta_w clears this are "flagrant": loss so concentrated
/// that a single such window plus an above-threshold cumulative estimate
/// convicts. 2.5x the per-link threshold alpha=0.03 inverted through the
/// 2.6-traversal exponent — benign GE bursts at the frontier's cover
/// settings never reach it through PAAI-1's 1/36 sampling.
inline constexpr double kWindowFlagrantTheta = 0.045;

/// Default window width in monitored units. At the paper's 100 pps and
/// PAAI-1's p=1/36 probe sampling, 192 units ~ covers a handful of GE
/// bursts, long enough that an all-clean window reads theta_w = 0 and a
/// colluder-straddled window reads far above kWindowHighTheta.
inline constexpr std::uint64_t kDefaultWindowWidth = 192;

/// Default consecutive-hot-window requirement for --blame=hybrid.
inline constexpr std::uint64_t kDefaultHybridStreak = 4;

/// Default repetition count for --blame=persistent (PR 7's calibration).
inline constexpr std::uint64_t kDefaultPersistence = 3;

/// Completed-window theta_w values retained per link for forensics.
inline constexpr std::size_t kWindowRingCap = 8;

/// Unified conviction-rule spec behind --blame. Grammar
/// (util/specgrammar lexical conventions, parsed by parse()):
///
///   blame := 'margin'
///          | 'persistent' [':' K]        K in [1, 2^20)
///          | 'windowed'   [':' W]        W in [8, 2^20)
///          | 'hybrid'     [':' K [',' W]]  K in [1, 8]
///
/// The rules:
///
///   margin       theta_i - sd > threshold            (paper Theorem 2)
///   persistent:K s_i >= K and theta_i > threshold    (PR 7)
///   windowed:W   margin OR (>=1 flagrant window and theta_i > threshold)
///   hybrid:K,W   windowed OR (max hot streak >= K and
///                             theta_i > kWindowHighTheta)
///
/// encode32()/decode32() pack a spec into the int32 `link` field of the
/// kRunConfig forensic event (margin = 0 and persistent:K = K keep the
/// PR 7 wire format; windowed/hybrid use tag bits 28+).
struct BlameSpec {
  enum class Mode : std::uint8_t { kMargin, kPersistent, kWindowed, kHybrid };

  Mode mode = Mode::kMargin;
  std::uint64_t k = 0;                     // persistence / streak length
  std::uint64_t w = kDefaultWindowWidth;   // window width, monitored units

  static BlameSpec parse(std::string_view text);
  std::string to_string() const;

  std::int32_t encode32() const;
  static BlameSpec decode32(std::int32_t code);

  bool uses_windows() const {
    return mode == Mode::kWindowed || mode == Mode::kHybrid;
  }

  friend bool operator==(const BlameSpec& a, const BlameSpec& b) {
    return a.mode == b.mode && a.k == b.k && a.w == b.w;
  }
  friend bool operator!=(const BlameSpec& a, const BlameSpec& b) {
    return !(a == b);
  }
};

/// Per-link accumulator over *closed* windows. The owning table cuts its
/// monitored-unit axis every `width` units, computes that window's
/// per-link theta_w vector, and calls finalize(); the ledger never sees
/// the in-progress window (its fill is derivable as axis % width, so
/// snapshots only carry the table's current-window bins plus this
/// ledger's counters).
class WindowLedger {
 public:
  WindowLedger(std::size_t num_links, std::uint64_t width);

  std::uint64_t width() const { return width_; }

  /// Changes the window width. Only legal before any window closed and
  /// with an empty current window (the owner enforces axis == 0).
  void set_width(std::uint64_t width);

  /// Closes one window with the given per-link sliding estimates.
  void finalize(const std::vector<double>& theta_w);

  std::uint64_t completed() const { return completed_; }
  std::size_t num_links() const { return links_.size(); }

  std::uint64_t cur_streak(std::size_t link) const {
    return links_[link].cur_streak;
  }
  /// Monotone latch: longest run of consecutive hot windows ever seen.
  /// (A latch, not "last K windows", so a colluder whose bursts end
  /// before the final checkpoint still shows its streak.)
  std::uint64_t max_streak(std::size_t link) const {
    return links_[link].max_streak;
  }
  std::uint64_t flagrant_windows(std::size_t link) const {
    return links_[link].flagrant;
  }
  double max_theta_w(std::size_t link) const {
    return links_[link].max_theta_w;
  }
  /// Last kWindowRingCap completed-window estimates, oldest first.
  const std::vector<double>& recent(std::size_t link) const {
    return links_[link].recent;
  }

  /// Burstiness statistic: max window blame-share over cumulative share.
  /// ~1 for steady loss, >> 1 when blame concentrates in time. 0 until a
  /// window closed or while the cumulative estimate is 0.
  double burstiness(std::size_t link, double cumulative_theta) const;

  /// Rebuilds the ledger from a snapshot (paai.state.v1 "window" object).
  /// All vectors must have num_links() entries and each recent ring at
  /// most kWindowRingCap values; throws std::invalid_argument otherwise.
  void restore(std::uint64_t completed,
               const std::vector<std::uint64_t>& cur_streak,
               const std::vector<std::uint64_t>& max_streak,
               const std::vector<std::uint64_t>& flagrant,
               const std::vector<double>& max_theta_w,
               const std::vector<std::vector<double>>& recent);

  void reset();

 private:
  struct LinkState {
    std::uint64_t cur_streak = 0;
    std::uint64_t max_streak = 0;
    std::uint64_t flagrant = 0;
    double max_theta_w = 0.0;
    std::vector<double> recent;
  };

  std::vector<LinkState> links_;
  std::uint64_t width_;
  std::uint64_t completed_ = 0;
};

}  // namespace paai::protocols
