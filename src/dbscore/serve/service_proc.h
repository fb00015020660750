/**
 * @file
 * DBMS entry point for the scoring service.
 *
 * Where sp_score_model runs the paper's per-query pipeline (cold
 * process, private data copy, solo dispatch), sp_score_service routes
 * the same ask through the shared ScoringService: the request may be
 * coalesced with concurrent sessions' requests, rides a warm per-device
 * process pool, and is answered with its share of the batch's modeled
 * stage breakdown — the difference between the two procedures *is* the
 * serving layer's amortization.
 */
#ifndef DBSCORE_SERVE_SERVICE_PROC_H
#define DBSCORE_SERVE_SERVICE_PROC_H

#include <string>
#include <utility>

#include "dbscore/common/string_util.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/serve/scoring_service.h"

namespace dbscore::serve {

/**
 * The `metric,value` result of sp_serve_stats and sp_fleet_stats:
 * @p add_rows(snapshot, add) fills it from one @p service Stats(), and
 * with `@reset = 1` the service's counters reset after that snapshot,
 * so the caller gets the phase that just ended and the next call
 * starts from zero.
 */
template <typename Service, typename AddRows>
QueryResult
StatsProcResult(Service& service, const ExecStatement& stmt,
                AddRows add_rows)
{
    const bool reset = GetIntParam(stmt, "reset").value_or(0) != 0;
    QueryResult result;
    result.columns = {"metric", "value"};
    add_rows(service.Stats(),
             [&result](const std::string& metric, Value value) {
                 result.rows.push_back({metric, std::move(value)});
             });
    if (reset) {
        service.ResetStats();
    }
    result.message = StrFormat("%zu metrics%s", result.rows.size(),
                               reset ? ", counters reset" : "");
    return result;
}

/**
 * Registers two stored procedures on @p engine against @p service
 * (which must outlive the engine and be Start()ed before use):
 *
 *   EXEC sp_score_service @model = '<id>', @rows = N
 *        [, @deadline_ms = D]
 *     Submits one request and blocks for its reply; returns one row of
 *     modeled timing (status, backend, batch size, latency, wait).
 *
 *   EXEC sp_serve_stats [@reset = 1]
 *     Returns the service's live counters as rows of (metric, value).
 *     With @reset = 1, zeroes the counters after reading them.
 */
void RegisterServeProcedures(QueryEngine& engine, ScoringService& service);

}  // namespace dbscore::serve

#endif  // DBSCORE_SERVE_SERVICE_PROC_H
