#ifndef JOCL_SERVE_CANON_JSON_H_
#define JOCL_SERVE_CANON_JSON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "serve/canon_store.h"

namespace jocl {

/// \file
/// \brief The JSON fragment writers behind every store-backed 200 body.
///
/// The fallback renderer (`HandleCanonRequest`) and the response arena
/// (`BuildResponseCache`) compose their bodies from these same pieces,
/// so a cached answer is byte-identical to a rendered one by
/// construction. The body grammar, in fragments:
///
///     /lookup  = LookupPrefix(s) Cluster(c0) ("," Cluster(ci))* "]}"
///     /cluster = ClusterPrefix(kind) Cluster(c) "}"
///     /link    = LinkBody(s)
///
/// `Cluster(c)` — `{"id":…,"size":…,"members":[…],"link":…}` — is the
/// only fragment whose size grows with the cluster, which is why the
/// arena renders it once per cluster and every member's `/lookup`
/// answer gathers the shared copy.
///
/// Surface and cluster ids are always printed as global (monolith) ids,
/// so a shard store renders the monolith's bytes. All surface/cluster
/// arguments are section-local ids of \p store.

/// Closes a `/lookup` body after its cluster list.
inline constexpr std::string_view kLookupSuffix = "]}";
/// Closes a `/cluster` body after its cluster object.
inline constexpr std::string_view kClusterSuffix = "}";

/// `"np"` or `"rp"` without quotes.
std::string_view KindName(CanonKind kind);

/// `{"kind":"np","cluster":` — the fixed opening of a `/cluster` body.
std::string_view ClusterPrefix(CanonKind kind);

/// Appends \p value in decimal.
void AppendDecimal(std::string* out, uint64_t value);

/// The cluster object: id, size, member surfaces, canonical link.
void AppendClusterJson(std::string* out, const CanonStore& store,
                       CanonKind kind, size_t cluster);

/// Everything of a `/lookup` body before its first cluster object:
/// `{"surface":…,"kind":…,"surface_id":…,"mentions":…,"clusters":[`.
void AppendLookupPrefix(std::string* out, const CanonStore& store,
                        CanonKind kind, size_t surface);

/// The whole `/lookup` body of \p surface.
void AppendLookupBody(std::string* out, const CanonStore& store,
                      CanonKind kind, size_t surface);

/// The whole `/link` body of \p surface (its first cluster's link, or
/// `null` when it is in none).
void AppendLinkBody(std::string* out, const CanonStore& store,
                    CanonKind kind, size_t surface);

/// The whole `/cluster` body of \p cluster.
void AppendClusterBody(std::string* out, const CanonStore& store,
                       CanonKind kind, size_t cluster);

}  // namespace jocl

#endif  // JOCL_SERVE_CANON_JSON_H_
