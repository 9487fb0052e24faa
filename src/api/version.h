#ifndef TECORE_API_VERSION_H_
#define TECORE_API_VERSION_H_

namespace tecore {
namespace api {

/// \brief Library/binary release version (SemVer), reported by
/// `tecore-cli --version` and every server response envelope.
inline constexpr const char kTecoreVersion[] = "0.14.0";

/// \brief Wire-protocol major version — the `/v1` in endpoint paths.
/// Bumped only on breaking changes to the request/response schemas.
/// Known exception: 0.5.0 changed the error envelope in place (from
/// `{"error": msg, "code": name}` to `{"error": {"code", "message"}}`)
/// as part of the tenancy redesign — success schemas were untouched and
/// the legacy paths kept answering, so `/v1` was retained; clients that
/// parse error bodies must follow docs/api.md §Errors. 0.13.0 removed
/// the deprecated `/v1/<endpoint>` aliases and `/v1/kb/{name}/suggest`
/// without a bump: every remaining path, and each one's schema, is
/// unchanged (docs/api.md §Breaking changes).
inline constexpr int kApiMajorVersion = 1;

}  // namespace api
}  // namespace tecore

#endif  // TECORE_API_VERSION_H_
