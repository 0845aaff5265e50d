/**
 * @file
 * Report rendering: comparison tables and the JSON emitter.
 */

#include "exp/report.hh"

#include <fstream>

#include "util/logging.hh"
#include "util/strutil.hh"
#include "util/table.hh"

namespace secproc::exp
{

Report::Report(const ExperimentSpec &spec, unsigned threads)
    : name_(spec.name), title_(spec.title), subtitle_(spec.subtitle),
      benchmarks_(spec.benchmarkList()), options_(spec.options),
      threads_(threads)
{
    for (const ConfigVariant &variant : spec.variants) {
        VariantInfo info;
        info.label = variant.label;
        info.has_paper = static_cast<bool>(variant.paper);
        info.baseline = variant.baseline.empty() ? spec.baseline_label
                                                 : variant.baseline;
        variants_.push_back(std::move(info));
    }
}

bool
Report::reports(const std::string &variant) const
{
    for (const CellResult &cell : cells_) {
        if (cell.variant == variant && cell.measured.has_value())
            return true;
    }
    return false;
}

void
Report::setCells(std::vector<CellResult> cells)
{
    cells_ = std::move(cells);
}

const CellResult *
Report::find(const std::string &variant, const std::string &bench) const
{
    for (const CellResult &cell : cells_) {
        if (cell.variant == variant && cell.bench == bench)
            return &cell;
    }
    return nullptr;
}

std::optional<double>
Report::average(const std::string &variant) const
{
    double sum = 0.0;
    size_t n = 0;
    for (const CellResult &cell : cells_) {
        if (cell.variant == variant && cell.measured.has_value()) {
            sum += *cell.measured;
            ++n;
        }
    }
    if (n == 0)
        return std::nullopt;
    return sum / static_cast<double>(n);
}

namespace
{

std::string
formatValue(std::optional<double> value, TableUnit unit, bool convert)
{
    if (!value.has_value())
        return "-";
    double v = *value;
    if (unit == TableUnit::NormalizedTime && convert)
        v = 1.0 + v / 100.0;
    return util::formatDouble(v, 2);
}

} // namespace

void
Report::printTable(std::ostream &os, TableUnit unit) const
{
    std::vector<std::string> headers = {"bench"};
    std::vector<const VariantInfo *> shown;
    for (const VariantInfo &info : variants_) {
        if (!reports(info.label))
            continue;
        shown.push_back(&info);
        if (info.has_paper) {
            headers.push_back(info.label + " paper");
            headers.push_back(info.label + " measured");
        } else {
            headers.push_back(info.label);
        }
    }
    util::Table table(headers);

    for (const std::string &bench : benchmarks_) {
        std::vector<std::string> row = {bench};
        for (const VariantInfo *info : shown) {
            const CellResult *cell = find(info->label, bench);
            const bool have = cell != nullptr;
            if (info->has_paper) {
                // Paper numbers are supplied in table units already.
                row.push_back(
                    have ? formatValue(cell->paper, unit, false) : "-");
            }
            row.push_back(
                have ? formatValue(cell->measured, unit, true) : "-");
        }
        table.addRow(row);
    }

    std::vector<std::string> avg_row = {"average"};
    for (const VariantInfo *info : shown) {
        if (info->has_paper) {
            double sum = 0.0;
            size_t n = 0;
            for (const CellResult &cell : cells_) {
                if (cell.variant == info->label &&
                    cell.paper.has_value()) {
                    sum += *cell.paper;
                    ++n;
                }
            }
            avg_row.push_back(n == 0 ? "-"
                                     : util::formatDouble(
                                           sum / static_cast<double>(n),
                                           2));
        }
        avg_row.push_back(
            formatValue(average(info->label), unit, true));
    }
    table.addRow(avg_row);

    os << "== " << title_ << " ==\n";
    if (!subtitle_.empty())
        os << "(" << subtitle_ << "; "
           << options_.measure_instructions
           << " instructions measured after "
           << options_.warmup_instructions << " warm-up)\n";
    table.print(os);
    os << std::endl;
}

void
Report::printVariantRows(std::ostream &os) const
{
    std::vector<std::string> headers = {"variant"};
    for (const std::string &bench : benchmarks_)
        headers.push_back(bench);
    headers.push_back("average");
    util::Table table(headers);

    for (const VariantInfo &info : variants_) {
        if (!reports(info.label))
            continue;
        std::vector<std::string> row = {info.label};
        for (const std::string &bench : benchmarks_) {
            const CellResult *cell = find(info.label, bench);
            row.push_back(cell == nullptr
                              ? "-"
                              : formatValue(cell->measured,
                                            TableUnit::SlowdownPct,
                                            true));
        }
        row.push_back(formatValue(average(info.label),
                                  TableUnit::SlowdownPct, true));
        table.addRow(row);
    }

    os << "== " << title_ << " ==\n";
    if (!subtitle_.empty())
        os << "(" << subtitle_ << "; "
           << options_.measure_instructions
           << " instructions measured after "
           << options_.warmup_instructions << " warm-up)\n";
    table.print(os);
    os << std::endl;
}

util::Json
Report::toJson() const
{
    util::Json doc = util::Json::object();
    doc.set("schema_version", 1);
    doc.set("experiment", name_);
    doc.set("title", title_);
    if (!subtitle_.empty())
        doc.set("subtitle", subtitle_);

    util::Json options = util::Json::object();
    options.set("warmup_instructions", options_.warmup_instructions);
    options.set("measure_instructions", options_.measure_instructions);
    options.set("threads", static_cast<uint64_t>(threads_));
    doc.set("options", std::move(options));

    util::Json benches = util::Json::array();
    for (const std::string &bench : benchmarks_)
        benches.push(bench);
    doc.set("benchmarks", std::move(benches));

    util::Json variants = util::Json::array();
    for (const VariantInfo &info : variants_) {
        util::Json v = util::Json::object();
        v.set("label", info.label);
        if (!info.baseline.empty() && info.baseline != info.label)
            v.set("baseline", info.baseline);
        variants.push(std::move(v));
    }
    doc.set("variants", std::move(variants));

    util::Json cells = util::Json::array();
    for (const CellResult &cell : cells_) {
        util::Json c = util::Json::object();
        c.set("variant", cell.variant);
        c.set("bench", cell.bench);
        if (cell.paper.has_value())
            c.set("paper", *cell.paper);
        if (cell.measured.has_value())
            c.set("measured", *cell.measured);

        util::Json stats = util::Json::object();
        stats.set("instructions", cell.stats.instructions);
        stats.set("cycles", cell.stats.cycles);
        stats.set("ipc", cell.stats.ipc);
        stats.set("l2_misses", cell.stats.l2_misses);
        stats.set("l2_accesses", cell.stats.l2_accesses);
        stats.set("data_bytes", cell.stats.data_bytes);
        stats.set("seqnum_bytes", cell.stats.seqnum_bytes);
        stats.set("fast_fills", cell.stats.fast_fills);
        stats.set("slow_fills", cell.stats.slow_fills);
        stats.set("snc_query_misses", cell.stats.snc_query_misses);
        c.set("stats", std::move(stats));

        if (!cell.extras.empty()) {
            util::Json extras = util::Json::object();
            for (const auto &[key, value] : cell.extras)
                extras.set(key, value);
            c.set("extras", std::move(extras));
        }
        cells.push(std::move(c));
    }
    doc.set("cells", std::move(cells));

    // Host speed only, outside "cells": it varies run to run, so
    // the identity gate never compares it.
    util::Json profile = util::Json::object();
    profile.set("wall_seconds", profile_.wall_seconds);
    profile.set("cells", profile_.cells);
    doc.set("profile", std::move(profile));
    return doc;
}

std::string
Report::defaultJsonPath() const
{
    return "BENCH_" + name_ + ".json";
}

void
Report::writeJson(const std::string &path) const
{
    const std::string target = path.empty() ? defaultJsonPath() : path;
    std::ofstream out(target);
    fatal_if(!out, "cannot open '", target, "' for writing");
    out << toJson().dump(2) << "\n";
    fatal_if(!out.good(), "failed writing '", target, "'");
    inform("wrote ", target);
}

} // namespace secproc::exp
