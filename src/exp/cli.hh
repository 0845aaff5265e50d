/**
 * @file
 * Shared command line for the fig/ablation experiment binaries:
 * every one accepts --threads=N (worker pool size), --json[=PATH]
 * and --no-json, on top of the SECPROC_WARMUP / SECPROC_MEASURE /
 * SECPROC_THREADS environment controls.
 */

#ifndef SECPROC_EXP_CLI_HH
#define SECPROC_EXP_CLI_HH

#include <cstdint>
#include <functional>
#include <string>

#include "exp/runner.hh"
#include "exp/spec.hh"

namespace secproc::exp
{

/**
 * Single-argument flag matchers shared by every binary that parses
 * a command line (the bench CLI below, secproc_run, update_tool,
 * fleet_tool). Each returns true when @p arg is that flag, so a
 * parse loop is a chain of `if (flag(...)) ... else if
 * (flagValue(...)) ...` with no per-tool substr arithmetic.
 * @{
 */

/** True when @p arg is exactly @p name (e.g. "--no-json"). */
bool flag(const std::string &arg, const char *name);

/**
 * True when @p arg is "@p prefix<value>" (prefix includes the '=',
 * e.g. "--json="); stores the value. fatal() on an empty value —
 * "--json=" with nothing after it is always a typo.
 */
bool flagValue(const std::string &arg, const char *prefix,
               std::string *value);

/** flagValue + checked integer parse (util::parseU64; fatal() on
 *  garbage or overflow). */
bool flagU64(const std::string &arg, const char *prefix,
             uint64_t *value);

/** @} */

/** SECPROC_TRACE environment override, or "" when unset. */
std::string traceOutFromEnvironment();

/** Parsed experiment-binary command line. */
struct BenchCli
{
    RunnerOptions runner;
    RunOptions options;

    /** Emit BENCH_<name>.json next to the printed table. */
    bool write_json = true;

    /** Override for the JSON path ("" = the report default). */
    std::string json_path;
};

/**
 * Parse the standard experiment flags; fatal() (with usage on
 * stderr) on anything unrecognized. Defaults come from the
 * environment (SECPROC_WARMUP/MEASURE/THREADS).
 */
BenchCli parseBenchCli(int argc, char **argv);

/**
 * parseBenchCli with tool-specific additions: any argument the
 * standard set does not recognize is offered to @p extra, which
 * returns true when it consumed it. @p extra_help lines (if any)
 * are appended to the --help text.
 */
BenchCli
parseBenchCli(int argc, char **argv,
              const std::function<bool(const std::string &)> &extra,
              const std::string &extra_help = "");

} // namespace secproc::exp

#endif // SECPROC_EXP_CLI_HH
