#include "serve/response_cache.h"

#include <algorithm>

#include "serve/canon_json.h"

namespace jocl {
namespace {

/// The head of a cached 200, byte-equal to the one the event loop
/// writes for a rendered 200: status line + fixed headers +
/// Content-Length + the store's generation, stopping before the
/// Connection line so the event loop can finish the head per request.
void AppendResponseHead(std::string* arena, size_t body_len,
                        std::string_view generation_line) {
  arena->append("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                "Content-Length: ");
  AppendDecimal(arena, body_len);
  arena->append(generation_line);
}

bool GathersClusters(size_t clusters) {
  return clusters <= ResponseCache::kMaxGatheredClusters;
}

}  // namespace

void ResponseCache::Begin(const Entry& entry, Hit* hit) const {
  hit->count = 0;
  hit->Append(View(entry.offset, entry.header_len));
  if (entry.body_len > 0) {
    hit->Append(View(entry.offset + entry.header_len, entry.body_len));
  }
}

int64_t ResponseCache::FindSurfaceId(const KindCache& kind,
                                     std::string_view surface) const {
  const auto it = std::lower_bound(kind.surface_keys.begin(),
                                   kind.surface_keys.end(), surface, SvLess{});
  if (it == kind.surface_keys.end() || *it != surface) return -1;
  return kind.surface_ids[static_cast<size_t>(it - kind.surface_keys.begin())];
}

bool ResponseCache::Find(std::string_view method, std::string_view target,
                         char* scratch, size_t scratch_cap, Hit* hit) const {
  if (arena_.empty() || method != "GET") return false;
  std::string_view path = target;
  std::string_view query;
  const size_t qmark = target.find('?');
  if (qmark != std::string_view::npos) {
    path = target.substr(0, qmark);
    query = target.substr(qmark + 1);
  }
  enum class Role { kLookup, kLink, kCluster };
  Role role;
  if (path == "/lookup") {
    role = Role::kLookup;
  } else if (path == "/link") {
    role = Role::kLink;
  } else if (path == "/cluster") {
    role = Role::kCluster;
  } else {
    return false;  // /stats and unknown paths are never cached
  }

  std::string_view raw_kind;
  CanonKind kind = CanonKind::kNp;
  switch (FindQueryValue(query, "kind", &raw_kind)) {
    case QueryScan::kNeedsFallback:
      return false;
    case QueryScan::kMissing:
      break;
    case QueryScan::kFound: {
      char kind_buf[8];
      std::string_view decoded;
      if (!UrlDecodeInto(raw_kind, kind_buf, sizeof(kind_buf), &decoded)) {
        return false;
      }
      if (decoded == "np") {
        kind = CanonKind::kNp;
      } else if (decoded == "rp") {
        kind = CanonKind::kRp;
      } else {
        return false;  // fallback renders the 400
      }
      break;
    }
  }
  const KindCache& kc = kinds_[static_cast<size_t>(kind)];

  if (role == Role::kCluster) {
    std::string_view raw_id;
    if (FindQueryValue(query, "id", &raw_id) != QueryScan::kFound ||
        raw_id.empty() ||
        raw_id.find_first_not_of("0123456789") != std::string_view::npos) {
      return false;
    }
    uint64_t id = 0;
    for (char c : raw_id) {
      id = id * 10 + static_cast<uint64_t>(c - '0');
      if (id > 0xffffffffull) return false;  // fallback renders the 404
    }
    // Targets carry global ids; on a shard the global map takes them to
    // the local slice index.
    const int64_t local = store_->FindClusterByGlobalId(kind, id);
    if (local < 0 || static_cast<size_t>(local) >= kc.cluster.size()) {
      return false;  // fallback renders the 404
    }
    const size_t c = static_cast<size_t>(local);
    Begin(kc.cluster[c], hit);
    hit->Append(ClusterPrefix(kind));
    hit->Append(View(kc.cluster_json[c].offset, kc.cluster_json[c].len));
    hit->Append(kClusterSuffix);
    return true;
  }
  std::string_view raw_surface;
  if (FindQueryValue(query, "surface", &raw_surface) != QueryScan::kFound) {
    return false;
  }
  std::string_view surface;
  if (!UrlDecodeInto(raw_surface, scratch, scratch_cap, &surface)) {
    return false;
  }
  const int64_t id = FindSurfaceId(kc, surface);
  if (id < 0) return false;  // unknown surface: fallback renders the 404
  const size_t s = static_cast<size_t>(id);
  if (role == Role::kLink) {
    Begin(kc.link[s], hit);
    return true;
  }
  Begin(kc.lookup[s], hit);
  const ConstSpan<uint32_t> clusters = store_->ClustersOf(kind, s);
  if (!GathersClusters(clusters.size())) return true;  // contiguous body
  for (size_t i = 0; i < clusters.size(); ++i) {
    const ClusterSlice& slice = kc.cluster_json[clusters[i]];
    // Past the first position the slice starts one byte early, at the
    // ',' rendered in front of every cluster object.
    hit->Append(i == 0 ? View(slice.offset, slice.len)
                       : View(slice.offset - 1, slice.len + 1));
  }
  hit->Append(kLookupSuffix);
  return true;
}

ResponseCache BuildResponseCache(const CanonStore& store) {
  ResponseCache cache;
  cache.store_ = &store;
  std::string& arena = cache.arena_;
  std::string generation_line = "\r\nX-Jocl-Generation: ";
  AppendDecimal(&generation_line, store.generation);
  generation_line.append("\r\n");
  // Writes one entry: head for a body of `body_len` bytes, followed by
  // the `own` bytes the entry carries itself.
  const auto append_entry = [&](size_t body_len, std::string_view own,
                                ResponseCache::Entry* entry) {
    entry->offset = arena.size();
    AppendResponseHead(&arena, body_len, generation_line);
    entry->header_len = static_cast<uint32_t>(arena.size() - entry->offset);
    arena.append(own);
    entry->body_len = static_cast<uint32_t>(own.size());
  };
  std::string body;  // scratch for the bytes an entry owns
  for (CanonKind kind : {CanonKind::kNp, CanonKind::kRp}) {
    const CanonSection& section = store.section(kind);
    ResponseCache::KindCache& kc = cache.kinds_[static_cast<size_t>(kind)];
    kc.surface_ids = section.surface_order;
    kc.surface_keys.reserve(kc.surface_ids.size());
    for (uint32_t surface : kc.surface_ids) {
      kc.surface_keys.push_back(store.SurfaceText(kind, surface));
    }

    // Every cluster object, rendered once, each behind its list comma.
    kc.cluster_json.resize(section.cluster_count());
    for (size_t c = 0; c < section.cluster_count(); ++c) {
      arena.push_back(',');
      ResponseCache::ClusterSlice& slice = kc.cluster_json[c];
      slice.offset = arena.size();
      AppendClusterJson(&arena, store, kind, c);
      slice.len = static_cast<uint32_t>(arena.size() - slice.offset);
    }
    kc.cluster.resize(section.cluster_count());
    for (size_t c = 0; c < section.cluster_count(); ++c) {
      append_entry(ClusterPrefix(kind).size() + kc.cluster_json[c].len +
                       kClusterSuffix.size(),
                   {}, &kc.cluster[c]);
    }

    kc.lookup.resize(section.surface_count());
    kc.link.resize(section.surface_count());
    for (size_t s = 0; s < section.surface_count(); ++s) {
      const ConstSpan<uint32_t> clusters = store.ClustersOf(kind, s);
      body.clear();
      size_t body_len = 0;
      if (GathersClusters(clusters.size())) {
        AppendLookupPrefix(&body, store, kind, s);
        body_len = body.size() + kLookupSuffix.size();
        for (size_t i = 0; i < clusters.size(); ++i) {
          body_len += kc.cluster_json[clusters[i]].len + (i > 0 ? 1 : 0);
        }
      } else {
        AppendLookupBody(&body, store, kind, s);
        body_len = body.size();
      }
      append_entry(body_len, body, &kc.lookup[s]);

      body.clear();
      AppendLinkBody(&body, store, kind, s);
      append_entry(body.size(), body, &kc.link[s]);
    }
  }
  return cache;
}

}  // namespace jocl
