#include "serve/canon_json.h"

#include <charconv>

#include "serve/json.h"
#include "util/ids.h"

namespace jocl {
namespace {

template <typename Int>
void AppendInt(std::string* out, Int value) {
  char buf[24];
  const std::to_chars_result end = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, static_cast<size_t>(end.ptr - buf));
}

void AppendLinkJson(std::string* out, const CanonStore& store, CanonKind kind,
                    size_t cluster) {
  const int64_t link = store.ClusterLink(kind, cluster);
  if (link == kNilId) {
    out->append("null");
    return;
  }
  out->append("{\"id\":");
  AppendInt(out, link);
  out->append(",\"name\":");
  AppendJsonString(out, store.ClusterLinkName(kind, cluster));
  out->append(",\"votes\":");
  AppendInt(out, store.section(kind).cluster_link_votes[cluster]);
  out->push_back('}');
}

/// `{"surface":…,"kind":…,"surface_id":…` — shared by /lookup and /link.
void AppendSurfaceHead(std::string* out, const CanonStore& store,
                       CanonKind kind, size_t surface) {
  out->append("{\"surface\":");
  AppendJsonString(out, store.SurfaceText(kind, surface));
  out->append(",\"kind\":\"");
  out->append(KindName(kind));
  out->append("\",\"surface_id\":");
  AppendInt(out, store.GlobalSurfaceId(kind, surface));
}

}  // namespace

std::string_view KindName(CanonKind kind) {
  return kind == CanonKind::kNp ? "np" : "rp";
}

std::string_view ClusterPrefix(CanonKind kind) {
  return kind == CanonKind::kNp ? "{\"kind\":\"np\",\"cluster\":"
                                : "{\"kind\":\"rp\",\"cluster\":";
}

void AppendDecimal(std::string* out, uint64_t value) { AppendInt(out, value); }

void AppendClusterJson(std::string* out, const CanonStore& store,
                       CanonKind kind, size_t cluster) {
  ConstSpan<uint32_t> members = store.ClusterMembers(kind, cluster);
  out->append("{\"id\":");
  AppendInt(out, store.GlobalClusterId(kind, cluster));
  out->append(",\"size\":");
  AppendInt(out, members.size());
  out->append(",\"members\":[");
  for (size_t i = 0; i < members.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendJsonString(out, store.SurfaceText(kind, members[i]));
  }
  out->append("],\"link\":");
  AppendLinkJson(out, store, kind, cluster);
  out->push_back('}');
}

void AppendLookupPrefix(std::string* out, const CanonStore& store,
                        CanonKind kind, size_t surface) {
  AppendSurfaceHead(out, store, kind, surface);
  out->append(",\"mentions\":");
  AppendInt(out, store.MentionCount(kind, surface));
  out->append(",\"clusters\":[");
}

void AppendLookupBody(std::string* out, const CanonStore& store,
                      CanonKind kind, size_t surface) {
  AppendLookupPrefix(out, store, kind, surface);
  ConstSpan<uint32_t> clusters = store.ClustersOf(kind, surface);
  for (size_t i = 0; i < clusters.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendClusterJson(out, store, kind, clusters[i]);
  }
  out->append(kLookupSuffix);
}

void AppendLinkBody(std::string* out, const CanonStore& store, CanonKind kind,
                    size_t surface) {
  AppendSurfaceHead(out, store, kind, surface);
  out->append(",\"link\":");
  ConstSpan<uint32_t> clusters = store.ClustersOf(kind, surface);
  if (clusters.empty()) {
    out->append("null");
  } else {
    AppendLinkJson(out, store, kind, clusters[0]);
  }
  out->push_back('}');
}

void AppendClusterBody(std::string* out, const CanonStore& store,
                       CanonKind kind, size_t cluster) {
  out->append(ClusterPrefix(kind));
  AppendClusterJson(out, store, kind, cluster);
  out->append(kClusterSuffix);
}

}  // namespace jocl
