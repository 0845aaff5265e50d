/**
 * @file
 * Trace file serialization implementation.
 */

#include "sim/trace_io.hh"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "util/logging.hh"
#include "util/wire.hh"

namespace secproc::sim
{

namespace
{

constexpr uint32_t kMagic = 0x52545053; ///< "SPTR" little-endian
constexpr uint32_t kVersion = 1;
constexpr size_t kMaxRegions = 1024;

/** Op header bits above the 3-bit OpClass. */
constexpr uint8_t kMispredict = 0x08;
constexpr uint8_t kHasAddr = 0x10;
constexpr uint8_t kHasFetch = 0x20;
constexpr uint8_t kHasDep1 = 0x40;
constexpr uint8_t kHasDep2 = 0x80;

/** A value as its zigzag difference from @p prev, which it then
 *  becomes. @{ */
void
delta(util::WireWriter &w, uint64_t value, uint64_t &prev)
{
    w.zigzag(static_cast<int64_t>(value - prev));
    prev = value;
}

util::WireReader &
delta(util::WireReader &r, uint64_t &value, uint64_t &prev)
{
    int64_t diff = 0;
    r.zigzag(diff);
    value = prev += static_cast<uint64_t>(diff);
    return r;
}
/** @} */

/** Everything before the op stream (the format is in trace_io.hh). */
template <class W, class Image>
void
headerFields(W &w, Image &image)
{
    auto &p = image.profile;
    w.tag(kMagic).tag(kVersion).vstr(p.name).f64(p.mem_frac)
        .f64(p.branch_frac).f64(p.mispredict_rate).f64(p.mul_frac)
        .f64(p.fp_frac).u64(p.code_footprint).f64(p.jump_frac)
        .f64(p.dep_p).u64(p.rng_seed).u64(p.va_offset);
    w.vlist(p.regions, kMaxRegions, [](W &w, auto &region) {
        w.enumeration8(region.behavior, RegionBehavior::WriteOnce)
            .u64(region.footprint).f64(region.weight)
            .f64(region.store_frac).f64(region.zipf_s).u64(region.stride)
            .u32(region.burst_length).u64(region.window_lines)
            .u64(region.drift_interval).u64(region.drift_step_lines)
            .u64(region.conflict_stride).u64(region.conflict_lines)
            .u32(region.writes_per_line).flag8(region.plaintext)
            .flag8(region.preinitialized).u64(region.base);
    });
    w.vlist(image.live_lines, kMaxRegions, [](W &w, auto &lines) {
        uint64_t prev = 0;
        w.vlist(lines, SIZE_MAX,
                [&prev](W &w, auto &line) { delta(w, line, prev); });
    });
}

} // namespace

std::vector<uint8_t>
encodeTrace(const TraceImage &image)
{
    std::vector<uint8_t> out;
    util::VectorSink sink(out);
    util::WireWriter w(sink);
    headerFields(w, image);
    w.u64(image.ops.size());
    uint64_t prev_addr = 0;
    uint64_t prev_fetch = 0;
    for (const TraceOp &op : image.ops) {
        uint8_t header = static_cast<uint8_t>(op.cls);
        header |= op.mispredict ? kMispredict : 0;
        header |= op.addr != 0 ? kHasAddr : 0;
        header |= op.fetch_line != 0 ? kHasFetch : 0;
        header |= op.dep1 != 0 ? kHasDep1 : 0;
        header |= op.dep2 != 0 ? kHasDep2 : 0;
        w.u8(header);
        if (op.addr != 0)
            delta(w, op.addr, prev_addr);
        if (op.fetch_line != 0)
            delta(w, op.fetch_line, prev_fetch);
        if (op.dep1 != 0)
            w.u8(op.dep1);
        if (op.dep2 != 0)
            w.u8(op.dep2);
    }
    return out;
}

std::optional<TraceImage>
decodeTrace(std::span<const uint8_t> bytes)
{
    util::WireReader r(bytes);
    TraceImage image;
    headerFields(r, image);
    r.check(image.live_lines.size() == image.profile.regions.size());

    // Every op takes at least its header byte. A header bit announces
    // a nonzero field: the writer omits zeros, so a present field that
    // decodes to 0 is refused.
    uint64_t count = 0;
    r.u64(count).check(count <= r.remaining());
    if (r.ok())
        image.ops.reserve(count);
    uint64_t prev_addr = 0;
    uint64_t prev_fetch = 0;
    for (uint64_t i = 0; i < count && r.ok(); ++i) {
        uint8_t header = 0;
        r.u8(header).check((header & 0x07) <=
                           static_cast<uint8_t>(OpClass::Branch));
        TraceOp &op = image.ops.emplace_back();
        op.cls = static_cast<OpClass>(header & 0x07);
        op.mispredict = (header & kMispredict) != 0;
        if ((header & kHasAddr) != 0)
            delta(r, op.addr, prev_addr).check(op.addr != 0);
        if ((header & kHasFetch) != 0)
            delta(r, op.fetch_line, prev_fetch).check(op.fetch_line != 0);
        if ((header & kHasDep1) != 0)
            r.u8(op.dep1).check(op.dep1 != 0);
        if ((header & kHasDep2) != 0)
            r.u8(op.dep2).check(op.dep2 != 0);
    }
    if (!r.atEnd())
        return std::nullopt;
    return image;
}

void
writeTrace(const std::string &path, const TraceImage &image)
{
    const std::vector<uint8_t> bytes = encodeTrace(image);
    FILE *file = std::fopen(path.c_str(), "wb");
    fatal_if(file == nullptr, "cannot open trace file ", path,
             " for writing");
    const size_t written = std::fwrite(bytes.data(), 1, bytes.size(), file);
    std::fclose(file);
    fatal_if(written != bytes.size(), "short write to ", path);
}

TraceImage
captureTrace(Workload &workload, uint64_t count)
{
    TraceImage image;
    image.profile = workload.profile();
    for (size_t i = 0; i < image.profile.regions.size(); ++i)
        image.live_lines.push_back(workload.liveLines(i));
    image.ops.reserve(count);
    for (uint64_t i = 0; i < count; ++i)
        image.ops.push_back(workload.next());
    return image;
}

void
recordTrace(const std::string &path, Workload &workload, uint64_t count)
{
    writeTrace(path, captureTrace(workload, count));
}

TraceImage
readTrace(const std::string &path)
{
    // Read to EOF rather than sizing from ftell(), which a directory
    // or a pipe does not answer; a read error (a directory's EISDIR)
    // surfaces through ferror().
    FILE *file = std::fopen(path.c_str(), "rb");
    fatal_if(file == nullptr, "cannot open trace file ", path, ": ",
             std::strerror(errno));
    std::vector<uint8_t> bytes;
    uint8_t chunk[1 << 16];
    for (size_t got; (got = std::fread(chunk, 1, sizeof chunk, file)) > 0;)
        bytes.insert(bytes.end(), chunk, chunk + got);
    const bool failed = std::ferror(file) != 0;
    const int error = errno;
    std::fclose(file);
    fatal_if(failed, "cannot read trace file ", path, ": ",
             std::strerror(error));

    std::optional<TraceImage> image = decodeTrace(bytes);
    fatal_if(!image && !util::WireReader(bytes).tag(kMagic).ok(),
             "not a secproc trace file: ", path);
    fatal_if(!image, "trace file truncated or malformed: ", path);
    return std::move(*image);
}

TraceWorkload::TraceWorkload(const std::string &path)
    : image_(readTrace(path))
{
    fatal_if(image_.ops.empty(), "trace has no ops");
}

TraceWorkload::TraceWorkload(TraceImage image)
    : image_(std::move(image))
{
    fatal_if(image_.ops.empty(), "trace has no ops");
}

const TraceOp &
TraceWorkload::next()
{
    const TraceOp &op = image_.ops[position_];
    if (++position_ == image_.ops.size()) {
        position_ = 0;
        ++wraps_;
    }
    return op;
}

void
TraceWorkload::reset()
{
    position_ = 0;
    wraps_ = 0;
}

std::vector<uint64_t>
TraceWorkload::liveLines(size_t region_idx) const
{
    fatal_if(region_idx >= image_.live_lines.size(),
             "no live-line list for region ", region_idx);
    return image_.live_lines[region_idx];
}

} // namespace secproc::sim
