#ifndef TECORE_SERVER_ROUTES_H_
#define TECORE_SERVER_ROUTES_H_

#include <memory>
#include <string>

#include "api/registry.h"
#include "obs/access_log.h"
#include "server/auth.h"
#include "server/http_server.h"

namespace tecore {
namespace server {

/// \brief Router configuration.
struct RouterOptions {
  /// Service bearer token (`Authorization: Bearer <token>`); empty plus
  /// an empty `kb_tokens` disables auth. Missing/malformed credentials
  /// are 401, a wrong token is 403 (constant-time compare; see auth.h).
  /// When per-KB tokens are configured, the service token is the admin
  /// tier: it alone authorizes tenant lifecycle (list/create/delete).
  std::string auth_token;
  /// Per-KB tokens (`--kb-tokens-file`): KB name → token. A KB's token
  /// authorizes exactly that KB's endpoints; presenting it against
  /// another KB or an admin endpoint is 403 (see CheckScopedAuth).
  KbTokenMap kb_tokens;
  /// When set, every completed request is logged as one structured line
  /// (see obs/access_log.h). Null disables access logging.
  std::shared_ptr<obs::AccessLog> access_log;
};

/// \brief Dispatch one `/v1` request against the registry.
///
/// Tenant lifecycle:
///   GET    /v1/kb            — list KBs (name + snapshot digest each)
///   POST   /v1/kb            — create a KB ({"name": n}; 201, 409 dup)
///   GET    /v1/kb/{name}     — one KB's digest
///   DELETE /v1/kb/{name}     — delete (in-flight reads stay consistent,
///                              subscribers get a `close` event)
///
/// Per-KB endpoints, all rooted at /v1/kb/{name}/… (docs/api.md):
///   GET|POST /v1/kb/{n}/graph      load / describe the UTKG
///   GET|POST|DELETE /v1/kb/{n}/rules
///   POST /v1/kb/{n}/solve          most probable conflict-free KG
///   POST /v1/kb/{n}/edits          edit script, incremental re-solve
///   GET  /v1/kb/{n}/conflicts      detection report (?limit=N)
///   GET  /v1/kb/{n}/stats          statistics panel
///   GET  /v1/kb/{n}/complete       predicate completion (?prefix=p)
///   POST /v1/kb/{n}/mine           mine constraints, optionally adopt them
///   GET  /v1/kb/{n}/subscribe      server-sent events: one `snapshot`
///                                  event per publish (?max_events=N)
///
/// `GET /metrics` serves the Prometheus text exposition of the process
/// metrics registry. It is auth-exempt (scrapers hold no tokens) and
/// read-only; see docs/observability.md.
///
/// Reads are served from the tenant engine's current snapshot and never
/// block writes; every response carries the snapshot version it came
/// from. Errors are the uniform envelope
/// `{"error": {"code": …, "message": …}}`.
HttpResponse HandleApiRequest(api::EngineRegistry* registry,
                              const RouterOptions& options,
                              const HttpRequest& request);

/// \brief The auth scope a request needs. Admin scope covers tenant
/// lifecycle (the /v1/kb collection, DELETE of a KB) and every path that
/// names no KB — so a per-KB token probing outside its KB sees 403, never
/// 404. Derived from the same path parse as dispatch.
AuthScope ScopeFor(const HttpRequest& request);

/// \brief Bounded-cardinality endpoint label for request metrics: a
/// per-KB endpoint name the path routes to, "kb" for tenant lifecycle,
/// "metrics", or "other" for everything else — never raw request paths
/// (KB names and typo'd paths must not mint new series).
std::string EndpointLabel(const std::string& path);

/// \brief Handler closure for HttpServer. `registry` must outlive the
/// server. The closure wraps HandleApiRequest with per-request
/// instrumentation: request counters and latency histograms labeled by
/// endpoint, an in-flight gauge, an `X-Request-Id` response header
/// (echoed from the request or generated), and the optional access log.
HttpHandler MakeApiHandler(api::EngineRegistry* registry,
                           RouterOptions options = {});

}  // namespace server
}  // namespace tecore

#endif  // TECORE_SERVER_ROUTES_H_
