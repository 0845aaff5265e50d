/**
 * @file
 * Shared pieces of the host-time benchmark: options, the in-memory
 * span log of the traced run, the expected-output ledger that checks
 * simulated results, and the end-to-end metric summary every
 * workload reports.
 */

#ifndef HOSTBENCH_COMMON_HH
#define HOSTBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/agent.hh"

namespace hostbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point from)
{
    return std::chrono::duration<double>(Clock::now() - from).count();
}

/**
 * Number of input variants a seed selects between. Every variant's
 * simulated outputs are recorded in expected/<workload>.json, so a
 * run on any seed is checked against recorded values.
 */
inline constexpr uint32_t kVariants = 8;

inline uint32_t
variantOf(uint64_t seed)
{
    return static_cast<uint32_t>(seed % kVariants);
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Directory holding expected/<workload>.json. */
    std::string expected_dir = "hostbench/expected";
    /** Where the traced run writes its spans. */
    std::string spans_out;
    /** Record every variant's outputs instead of checking them. */
    bool record = false;
    /** Source revision, for the provenance line. */
    std::string commit = "unknown";
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** One host-time span: [start, end) in ns since the log's origin. */
struct Span
{
    std::string name;
    uint32_t id = 0;
    uint32_t parent = 0; ///< 0 = no parent
    uint32_t run = 0;    ///< operation the span belongs to
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
};

/**
 * Spans recorded from the benchmark's own code around its calls into
 * each layer. Kept in memory and written out once, at exit. A
 * disabled log reads no clock, so untraced runs pay nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled);

    bool enabled() const { return enabled_; }

    /** Operation id stamped on spans opened from now on. */
    void setRun(uint32_t run) { run_ = run; }

    /** Open a span under the innermost open one; returns its id. */
    uint32_t open(const char *name);

    /** Close the innermost open span, which must be @p id. */
    void close(uint32_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration in seconds of every span named @p name. */
    double total(const std::string &name) const;

    /** Summed duration in seconds of the direct children of @p id. */
    double childTotal(uint32_t id) const;

    /** Duration in seconds of span @p id. */
    double duration(uint32_t id) const;

    /** Write every span as JSON to @p path; false on I/O failure. */
    bool write(const std::string &path, const Options &options) const;

  private:
    bool enabled_;
    uint32_t run_ = 0;
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<uint32_t> stack_;
};

/** RAII span; a no-op when the log is disabled. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const char *name)
        : log_(log), id_(log.enabled() ? log.open(name) : 0)
    {
    }
    ~Scoped()
    {
        if (id_ != 0)
            log_.close(id_);
    }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

  private:
    SpanLog &log_;
    uint32_t id_;
};

/**
 * Forwarding BackgroundAgent for the traced run: counts advance()
 * pumps and times them, so the agent's self time can be taken out
 * of System::run.
 */
class CountingAgent : public secproc::sim::BackgroundAgent
{
  public:
    explicit CountingAgent(secproc::sim::BackgroundAgent &inner)
        : inner_(inner)
    {
    }

    void advance(uint64_t cycle) override;
    bool done() const override { return inner_.done(); }
    uint64_t nextEventCycle(uint64_t now) const override
    {
        return inner_.nextEventCycle(now);
    }
    void reset() override { inner_.reset(); }
    void setTraceSink(secproc::obs::TraceSink *sink) override
    {
        inner_.setTraceSink(sink);
    }

    uint64_t pumps() const { return pumps_; }
    double seconds() const { return static_cast<double>(ns_) * 1e-9; }

  private:
    secproc::sim::BackgroundAgent &inner_;
    uint64_t pumps_ = 0;
    uint64_t ns_ = 0;
};

/**
 * Recorded simulated outputs: variant -> operation key -> signature
 * string. In check mode a signature that differs from the recorded
 * one fails its operation.
 */
class Expected
{
  public:
    /**
     * Load @p options' expected file, or start an empty ledger when
     * recording. nullopt when the file is missing or malformed.
     */
    static std::optional<Expected> load(const Options &options);

    /**
     * Check (or, when recording, store) the signature of @p key in
     * the selected variant. Returns false on a mismatch or a key
     * with no recorded value.
     */
    bool check(uint32_t variant, const std::string &key,
               const std::string &signature);

    /** Write every recorded variant to @p options' expected file. */
    bool save(const Options &options) const;

  private:
    bool record_ = false;
    std::map<uint32_t, std::map<std::string, std::string>> values_;
    uint64_t mismatches_reported_ = 0;
};

/**
 * Host-speed reference. On a shared host the speed of the same code
 * drifts by 10-30% over seconds to minutes, which swamps any change
 * worth measuring. This fixed integer loop over a 32 KB table is
 * compiled into the benchmark (it calls no library code) and timed
 * between rounds; each round's times are rescaled to the speed at
 * which one slice takes kNominalSliceS. Those are "calibrated
 * seconds" (cal_s). A change to the library cannot move the slice
 * time, so it moves calibrated figures exactly as it moves wall time.
 */
class Calibrator
{
  public:
    /** Median slice time over about @p budget_s seconds (>= 5 slices). */
    double measure(double budget_s);

  private:
    std::vector<uint64_t> table_ = std::vector<uint64_t>(4096, 1);
    uint64_t state_ = 0x9E37'79B9'7F4A'7C15ull;

    double slice();
};

/** Slice time that defines one calibrated second. */
inline constexpr double kNominalSliceS = 1e-3;

/** Per-operation host latency and the workload's set-up samples. */
struct Tally
{
    std::vector<double> setup_s; ///< one sample per set-up
    std::vector<double> op_ms;   ///< one sample per operation
    /** Per round: units of the workload's rate per busy second. */
    std::vector<double> round_rate;
    uint64_t instructions = 0;   ///< simulated by this process
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/** What one workload run reports. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
    /** Human-readable lines printed before the result line. */
    std::vector<std::string> notes;
    /** Simulated instructions this process ran. */
    uint64_t simulated_instructions = 0;
};

/** q-quantile (0..1) by linear interpolation; 0 for no samples. */
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/** Peak resident set of this process, in MB. */
double peakRssMb();

/**
 * The end-to-end metrics every workload reports: setup_s (median
 * set-up, wall seconds) from @p raw, and from @p calibrated (the same
 * samples in calibrated seconds) work_per_cal_s (median round rate),
 * op_cal_ms_p50, op_cal_ms_p90; plus peak_rss_mb.
 */
std::vector<Metric> endToEnd(const Tally &raw, const Tally &calibrated);

/** Lowercase hex of the first @p bytes of a SHA-256 over @p data. */
std::string digestHex(const uint8_t *data, size_t len, size_t bytes = 8);

/** Fixed-width decimal rendering used in signatures. */
std::string num(double value);

} // namespace hostbench

#endif // HOSTBENCH_COMMON_HH
