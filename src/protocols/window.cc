#include "protocols/window.h"

#include <stdexcept>

#include "util/specgrammar.h"

namespace paai::protocols {

namespace {

constexpr std::uint64_t kMaxCount = std::uint64_t{1} << 20;  // K / W ceiling
constexpr std::uint64_t kMinWidth = 8;
constexpr std::int32_t kTagShift = 28;
constexpr std::int32_t kStreakShift = 20;

const std::string kPrefix = "blame spec";

std::uint64_t parse_count(std::string_view text, const std::string& what) {
  return static_cast<std::uint64_t>(util::spec_parse_index(text, what, kPrefix));
}

void check_persistence(std::uint64_t k) {
  if (k < 1 || k >= kMaxCount) {
    util::spec_error(kPrefix, "persistent K must be in [1, 2^20)");
  }
}

void check_width(std::uint64_t w) {
  if (w < kMinWidth || w >= kMaxCount) {
    util::spec_error(kPrefix, "window width W must be in [8, 2^20)");
  }
}

void check_streak(std::uint64_t k) {
  if (k < 1 || k > kWindowRingCap) {
    util::spec_error(kPrefix, "hybrid streak K must be in [1, 8]");
  }
}

}  // namespace

BlameSpec BlameSpec::parse(std::string_view text) {
  const std::string_view spec = util::spec_trim(text);
  const std::size_t colon = spec.find(':');
  const std::string_view head = util::spec_trim(spec.substr(0, colon));
  const std::string_view args = colon == std::string_view::npos
                                    ? std::string_view{}
                                    : util::spec_trim(spec.substr(colon + 1));

  BlameSpec out;
  if (head == "margin") {
    if (colon != std::string_view::npos) {
      util::spec_error(kPrefix, "margin mode takes no arguments");
    }
    return out;
  }
  if (head == "persistent") {
    out.mode = Mode::kPersistent;
    out.k = kDefaultPersistence;
    if (colon != std::string_view::npos) {
      out.k = parse_count(args, "persistence K");
    }
    check_persistence(out.k);
    return out;
  }
  if (head == "windowed") {
    out.mode = Mode::kWindowed;
    if (colon != std::string_view::npos) {
      out.w = parse_count(args, "window width W");
    }
    check_width(out.w);
    return out;
  }
  if (head == "hybrid") {
    out.mode = Mode::kHybrid;
    out.k = kDefaultHybridStreak;
    if (colon != std::string_view::npos) {
      const std::size_t comma = args.find(',');
      out.k = parse_count(util::spec_trim(args.substr(0, comma)), "streak K");
      if (comma != std::string_view::npos) {
        out.w = parse_count(util::spec_trim(args.substr(comma + 1)),
                            "window width W");
      }
    }
    check_streak(out.k);
    check_width(out.w);
    return out;
  }
  util::spec_error(
      kPrefix,
      "unknown mode '" + std::string(head) +
          "' (expected margin|persistent:K|windowed:W|hybrid:K,W)");
}

std::string BlameSpec::to_string() const {
  switch (mode) {
    case Mode::kMargin:
      return "margin";
    case Mode::kPersistent:
      return "persistent:" + std::to_string(k);
    case Mode::kWindowed:
      return "windowed:" + std::to_string(w);
    case Mode::kHybrid:
      return "hybrid:" + std::to_string(k) + "," + std::to_string(w);
  }
  return "margin";
}

std::int32_t BlameSpec::encode32() const {
  switch (mode) {
    case Mode::kMargin:
      return 0;
    case Mode::kPersistent:
      // PR 7 wire format: a bare K. Keeps old streams decodable.
      return static_cast<std::int32_t>(k);
    case Mode::kWindowed:
      return static_cast<std::int32_t>((std::uint64_t{1} << kTagShift) | w);
    case Mode::kHybrid:
      return static_cast<std::int32_t>((std::uint64_t{2} << kTagShift) |
                                       (k << kStreakShift) | w);
  }
  return 0;
}

BlameSpec BlameSpec::decode32(std::int32_t code) {
  if (code < 0) {
    util::spec_error(kPrefix, "negative wire encoding");
  }
  const std::uint64_t u = static_cast<std::uint64_t>(code);
  const std::uint64_t tag = u >> kTagShift;
  BlameSpec out;
  switch (tag) {
    case 0:
      if (u == 0) return out;  // margin
      out.mode = Mode::kPersistent;
      out.k = u;
      check_persistence(out.k);
      return out;
    case 1:
      out.mode = Mode::kWindowed;
      out.w = u & (kMaxCount - 1);
      check_width(out.w);
      return out;
    case 2:
      out.mode = Mode::kHybrid;
      out.k = (u >> kStreakShift) & 0xff;
      out.w = u & (kMaxCount - 1);
      check_streak(out.k);
      check_width(out.w);
      return out;
    default:
      util::spec_error(kPrefix, "unknown wire tag");
  }
}

WindowLedger::WindowLedger(std::size_t num_links, std::uint64_t width)
    : links_(num_links), width_(width) {
  if (num_links == 0) {
    throw std::invalid_argument("WindowLedger: need at least one link");
  }
  check_width(width);
}

void WindowLedger::set_width(std::uint64_t width) {
  check_width(width);
  if (completed_ != 0) {
    throw std::logic_error(
        "WindowLedger::set_width: windows already closed at the old width");
  }
  width_ = width;
}

void WindowLedger::finalize(const std::vector<double>& theta_w) {
  if (theta_w.size() != links_.size()) {
    throw std::invalid_argument("WindowLedger::finalize: shape mismatch");
  }
  ++completed_;
  for (std::size_t i = 0; i < links_.size(); ++i) {
    LinkState& st = links_[i];
    const double tw = theta_w[i];
    if (tw > kWindowHighTheta) {
      ++st.cur_streak;
      if (st.cur_streak > st.max_streak) st.max_streak = st.cur_streak;
    } else {
      st.cur_streak = 0;
    }
    if (tw > kWindowFlagrantTheta) ++st.flagrant;
    if (tw > st.max_theta_w) st.max_theta_w = tw;
    if (st.recent.size() == kWindowRingCap) {
      st.recent.erase(st.recent.begin());
    }
    st.recent.push_back(tw);
  }
}

double WindowLedger::burstiness(std::size_t link,
                                double cumulative_theta) const {
  if (completed_ == 0 || cumulative_theta <= 0.0) return 0.0;
  return links_[link].max_theta_w / cumulative_theta;
}

}  // namespace paai::protocols
