#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "crypto/sha.hh"
#include "util/json.hh"

namespace hostbench
{

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
}

uint32_t
SpanLog::open(const char *name)
{
    Span span;
    span.name = name;
    span.id = static_cast<uint32_t>(spans_.size()) + 1;
    span.parent = stack_.empty() ? 0 : stack_.back();
    span.run = run_;
    span.start_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin_)
            .count());
    spans_.push_back(std::move(span));
    stack_.push_back(spans_.back().id);
    return spans_.back().id;
}

void
SpanLog::close(uint32_t id)
{
    if (stack_.empty() || stack_.back() != id) {
        std::cerr << "hostbench: span " << id << " closed out of order\n";
        std::exit(2);
    }
    stack_.pop_back();
    spans_[id - 1].end_ns = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - origin_)
            .count());
}

double
SpanLog::duration(uint32_t id) const
{
    const Span &span = spans_[id - 1];
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

double
SpanLog::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &span : spans_) {
        if (span.name == name)
            sum += duration(span.id);
    }
    return sum;
}

double
SpanLog::childTotal(uint32_t id) const
{
    double sum = 0.0;
    for (const Span &span : spans_) {
        if (span.parent == id)
            sum += duration(span.id);
    }
    return sum;
}

bool
SpanLog::write(const std::string &path, const Options &options) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"workload\":\"" << options.workload
        << "\",\"seed\":" << options.seed << ",\"spans\":[";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &span = spans_[i];
        out << (i == 0 ? "" : ",") << "\n{\"name\":\"" << span.name
            << "\",\"id\":" << span.id << ",\"parent\":" << span.parent
            << ",\"run\":" << span.run << ",\"start_ns\":"
            << span.start_ns << ",\"end_ns\":" << span.end_ns << "}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

void
CountingAgent::advance(uint64_t cycle)
{
    ++pumps_;
    const Clock::time_point start = Clock::now();
    inner_.advance(cycle);
    ns_ += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - start)
            .count());
}

namespace
{

std::string
expectedPath(const Options &options)
{
    return options.expected_dir + "/" + options.workload + ".json";
}

} // namespace

std::optional<Expected>
Expected::load(const Options &options)
{
    Expected expected;
    expected.record_ = options.record;
    if (options.record)
        return expected;

    std::ifstream in(expectedPath(options));
    std::stringstream text;
    text << in.rdbuf();
    const auto json = secproc::util::Json::parse(text.str());
    const secproc::util::Json *variants =
        json.has_value() && json->isObject() ? json->find("variants")
                                             : nullptr;
    if (!in || variants == nullptr || !variants->isObject()) {
        std::cerr << "hostbench: cannot read expected outputs '"
                  << expectedPath(options) << "'\n";
        return std::nullopt;
    }
    for (const auto &[variant, ops] : variants->members()) {
        if (!ops.isObject())
            return std::nullopt;
        auto &slot = expected.values_[static_cast<uint32_t>(
            std::stoul(variant))];
        for (const auto &[key, signature] : ops.members()) {
            if (!signature.isString())
                return std::nullopt;
            slot[key] = signature.str();
        }
    }
    return expected;
}

bool
Expected::check(uint32_t variant, const std::string &key,
                const std::string &signature)
{
    if (record_) {
        auto [it, inserted] = values_[variant].emplace(key, signature);
        // A repeated operation must reproduce itself exactly.
        return inserted || it->second == signature;
    }
    const auto variant_it = values_.find(variant);
    const std::string *want = nullptr;
    if (variant_it != values_.end()) {
        const auto it = variant_it->second.find(key);
        if (it != variant_it->second.end())
            want = &it->second;
    }
    if (want != nullptr && *want == signature)
        return true;
    if (mismatches_reported_++ < 5) {
        std::cout << "MISMATCH " << key << "\n  expected: "
                  << (want == nullptr ? "<none recorded>" : *want)
                  << "\n  got:      " << signature << "\n";
    }
    return false;
}

bool
Expected::save(const Options &options) const
{
    secproc::util::Json variants = secproc::util::Json::object();
    for (const auto &[variant, ops] : values_) {
        secproc::util::Json slot = secproc::util::Json::object();
        for (const auto &[key, signature] : ops)
            slot.set(key, signature);
        variants.set(std::to_string(variant), std::move(slot));
    }
    secproc::util::Json root = secproc::util::Json::object();
    root.set("workload", options.workload);
    root.set("variants", std::move(variants));
    std::ofstream out(expectedPath(options));
    out << root.dump(1) << "\n";
    return static_cast<bool>(out);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double
Calibrator::slice()
{
    const Clock::time_point start = Clock::now();
    uint64_t x = state_, acc = 0;
    const size_t mask = table_.size() - 1;
    for (int i = 0; i < 200'000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        uint64_t &slot = table_[x & mask];
        acc += slot;
        slot = acc ^ x;
        if ((acc & 7) == 3)
            acc *= 0x9E37'79B9'7F4A'7C15ull;
    }
    state_ = x ^ acc;
    return secondsSince(start);
}

double
Calibrator::measure(double budget_s)
{
    std::vector<double> slices;
    const Clock::time_point start = Clock::now();
    while (slices.size() < 5 || secondsSince(start) < budget_s)
        slices.push_back(slice());
    return median(std::move(slices));
}

std::vector<Metric>
endToEnd(const Tally &raw, const Tally &calibrated)
{
    return {
        {"setup_s", median(raw.setup_s), "s"},
        {"work_per_cal_s", median(calibrated.round_rate), "1/cal_s"},
        {"op_cal_ms_p50", quantile(calibrated.op_ms, 0.5), "cal_ms"},
        {"op_cal_ms_p90", quantile(calibrated.op_ms, 0.9), "cal_ms"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::string
digestHex(const uint8_t *data, size_t len, size_t bytes)
{
    const auto digest = secproc::crypto::Sha256::digest(data, len);
    std::string out;
    char buf[3];
    for (size_t i = 0; i < bytes && i < digest.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%02x", digest[i]);
        out += buf;
    }
    return out;
}

std::string
num(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

} // namespace hostbench
