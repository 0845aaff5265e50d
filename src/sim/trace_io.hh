/**
 * @file
 * Trace recording and replay.
 *
 * The paper drives SimpleScalar with SPEC2000 binaries; secproc
 * drives its timing model with synthetic generators. This module
 * closes the loop for users who want *fixed* inputs: a generated (or
 * externally converted) instruction stream can be serialized to a
 * compact binary file and replayed bit-exactly, producing the same
 * cycle counts as the live generator. The file embeds the workload
 * profile (region layout, footprints) so a replaying System can
 * pre-initialize encryption state exactly as it does for a
 * generator.
 *
 * Format (little-endian, on util::wire; varints are minimal LEB128):
 *   magic "SPTR", u32 version,
 *   profile block (scalars + regions),
 *   live-lines block (per region, for SNC priming),
 *   u64 op count, then per op:
 *     u8  [2:0] OpClass, [3] mispredict, [4] has addr,
 *         [5] has fetch_line, [6] has dep1, [7] has dep2
 *     varint zigzag delta addr      (if has addr)
 *     varint zigzag delta fetch     (if has fetch_line)
 *     u8 dep1 / u8 dep2             (if present)
 * Deltas are against the previous op's value of the same field,
 * which makes streaming accesses cost one or two bytes each. A field
 * is present exactly when it is nonzero.
 */

#ifndef SECPROC_SIM_TRACE_IO_HH
#define SECPROC_SIM_TRACE_IO_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/workload.hh"

namespace secproc::sim
{

/** In-memory image of a recorded trace. */
struct TraceImage
{
    WorkloadProfile profile;
    /** Per-region live-line lists (Workload::liveLines). */
    std::vector<std::vector<uint64_t>> live_lines;
    std::vector<TraceOp> ops;
};

/** The trace file's bytes for @p image. */
std::vector<uint8_t> encodeTrace(const TraceImage &image);

/**
 * Parse a whole trace file's bytes. Soft-fails: any input
 * encodeTrace() cannot produce (a bad magic or version, truncation,
 * trailing bytes, an out-of-range enum or flag, a non-minimal varint,
 * a count past the bytes left, a present op field of 0, live-line
 * lists that do not match the regions) yields std::nullopt, never a
 * fatal(). Whatever it accepts re-encodes to the same bytes.
 */
std::optional<TraceImage> decodeTrace(std::span<const uint8_t> bytes);

/** The next @p count ops of @p workload with its profile and live
 *  lines. The workload is advanced (not reset). */
TraceImage captureTrace(Workload &workload, uint64_t count);

/** captureTrace() into the file @p path; fatal() on I/O errors. */
void recordTrace(const std::string &path, Workload &workload,
                 uint64_t count);

/** encodeTrace() into the file @p path; fatal() on I/O errors. */
void writeTrace(const std::string &path, const TraceImage &image);

/** Load a trace file; fatal() (exit 1) if it cannot be read or
 *  decodeTrace() refuses it. */
TraceImage readTrace(const std::string &path);

/**
 * A Workload replaying a recorded trace. Replays loop: when the
 * recorded ops are exhausted the stream restarts from op 0 (the
 * wrap count is exposed for callers that care).
 */
class TraceWorkload : public Workload
{
  public:
    /** Load from @p path. */
    explicit TraceWorkload(const std::string &path);

    /** Adopt an in-memory image. */
    explicit TraceWorkload(TraceImage image);

    const TraceOp &next() override;
    const WorkloadProfile &profile() const override
    {
        return image_.profile;
    }
    void reset() override;
    std::vector<uint64_t> liveLines(size_t region_idx) const override;

    /** Recorded ops in the file. */
    uint64_t length() const { return image_.ops.size(); }

    /** Times the replay wrapped back to op 0. */
    uint64_t wraps() const { return wraps_; }

  private:
    TraceImage image_;
    size_t position_ = 0;
    uint64_t wraps_ = 0;
};

} // namespace secproc::sim

#endif // SECPROC_SIM_TRACE_IO_HH
