#ifndef JOCL_SERVE_RESPONSE_CACHE_H_
#define JOCL_SERVE_RESPONSE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "serve/canon_store.h"
#include "serve/http_util.h"

namespace jocl {

/// \brief Transparent `string_view` comparator — the flat-map idiom
/// (SNIPPETS.md §1): one ordering functor serves owned strings, views
/// and raw bytes alike, so lookups never materialize a key.
struct SvLess {
  using is_transparent = void;
  bool operator()(std::string_view lhs, std::string_view rhs) const noexcept {
    return lhs < rhs;
  }
};

/// \brief Pre-rendered HTTP responses for every hot endpoint of one
/// CanonStore generation — the serving hot path's fragment arena.
///
/// Built alongside the store by `BuildResponseCache`. Each cluster's
/// JSON object is rendered exactly once; the answers then gather shared
/// fragments instead of each owning a copy:
///
///   - `/lookup`: head + surface prefix + the surface's cluster slices
///     (shared with every other member) + `]}`;
///   - `/cluster`: head + `{"kind":…,"cluster":` + the same shared
///     slice + `}`;
///   - `/link`: head + body, contiguous (both are small).
///
/// So the arena is O(surfaces + members) rather than O(Σ|cluster|²). A
/// surface in more than `kMaxGatheredClusters` clusters (rare: a surface
/// decodes to one cluster in practice) gets its `/lookup` body written
/// contiguously instead, keeping every hit within the fixed piece
/// capacity of `CachedResponse`. A head is the complete status line +
/// headers without the final `Connection:` line, which the event loop
/// injects per request; answering a request is parse → binary-search →
/// one gather `sendmsg` — zero JSON work, zero allocation.
///
/// Every fragment comes from the writers the fallback renderer
/// (`HandleCanonRequest`) also uses (serve/canon_json.h), so a cached
/// response is byte-identical to a freshly rendered one by
/// construction. The cache reads the store's text pool (key index) and
/// cluster lists on the hot path; it must not outlive the store it was
/// built from — `ServingBundle` couples the two lifetimes and the
/// server swaps the bundle under one RCU pointer so a reader can never
/// pair a cached body with a mismatched generation.
class ResponseCache {
 public:
  /// A cache hit: views into the arena (or static text), valid as long
  /// as the cache.
  using Hit = CachedResponse;

  /// Most clusters a `/lookup` hit gathers as shared slices: head,
  /// surface prefix and `]}` take the other pieces.
  static constexpr size_t kMaxGatheredClusters =
      CachedResponse::kMaxPieces - 3;

  /// Zero-allocation hot-path lookup. \p target is the raw request
  /// target (`/lookup?surface=...`); percent-escapes decode into
  /// \p scratch. Returns true and fills \p hit only for an exact,
  /// unambiguous cache hit; every other case (unknown surface, bad
  /// parameter, `/stats`, exotic encodings, scratch overflow) returns
  /// false and the caller renders through the fallback path.
  bool Find(std::string_view method, std::string_view target, char* scratch,
            size_t scratch_cap, Hit* hit) const;

  bool empty() const { return arena_.empty(); }
  size_t arena_bytes() const { return arena_.size(); }
  size_t entry_count() const {
    size_t n = 0;
    for (const KindCache& k : kinds_) {
      n += k.lookup.size() + k.link.size() + k.cluster.size();
    }
    return n;
  }

 private:
  friend ResponseCache BuildResponseCache(const CanonStore& store);

  /// One response's own bytes in the arena: its head, then `body_len`
  /// contiguous body bytes (the whole body of a `/link` or a wide
  /// `/lookup`; the surface prefix of a gathered `/lookup`; none for
  /// `/cluster`).
  struct Entry {
    uint64_t offset = 0;
    uint32_t header_len = 0;
    uint32_t body_len = 0;
  };

  /// One cluster's JSON object in the arena. The byte before `offset`
  /// is the `,` a non-first position of a `/lookup` list needs, so both
  /// forms are one view.
  struct ClusterSlice {
    uint64_t offset = 0;
    uint32_t len = 0;
  };

  struct KindCache {
    /// Surface bytes (views into the store's text pool), sorted — the
    /// flat-map side of the SvLess idiom; parallel to surface_ids.
    std::vector<std::string_view> surface_keys;
    std::vector<uint32_t> surface_ids;
    std::vector<Entry> lookup;                 ///< by surface id
    std::vector<Entry> link;                   ///< by surface id
    std::vector<Entry> cluster;                ///< by cluster id
    std::vector<ClusterSlice> cluster_json;    ///< by cluster id
  };

  std::string_view View(uint64_t offset, size_t len) const {
    return std::string_view(arena_.data() + offset, len);
  }

  /// Starts \p hit with \p entry's head and its own body bytes, if any.
  void Begin(const Entry& entry, Hit* hit) const;

  /// -1 when the surface is not in this generation.
  int64_t FindSurfaceId(const KindCache& kind, std::string_view surface) const;

  std::string arena_;
  KindCache kinds_[2];  ///< indexed by CanonKind
  /// The store the cache was rendered from (global→local cluster ids
  /// and each surface's cluster list on the hot path). Same lifetime
  /// rule as the arena's key views: the bundle keeps store and cache
  /// together.
  const CanonStore* store_ = nullptr;
};

/// \brief Renders the hot-endpoint responses of \p store into a fresh
/// cache. Deterministic; cost and arena size are linear in the store
/// (surfaces + cluster members), paid on the publisher thread, never by
/// readers.
ResponseCache BuildResponseCache(const CanonStore& store);

/// \brief One RCU publication unit: the store and the responses
/// pre-rendered from it. `CanonServer::Publish` swaps a whole bundle
/// atomically, which is what makes the cached path generation-safe.
struct ServingBundle {
  std::shared_ptr<const CanonStore> store;
  ResponseCache cache;       ///< empty when pre-rendering is disabled
  bool has_cache = false;
};

}  // namespace jocl

#endif  // JOCL_SERVE_RESPONSE_CACHE_H_
