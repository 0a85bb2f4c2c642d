#include "diskimage/keyword_search.h"

#include <algorithm>

#include "legal/admission.h"

namespace lexfor::diskimage {

void KeywordSearcher::scan_region(const Bytes& data, FileId file,
                                  const std::string& path, HitRegion region,
                                  std::vector<KeywordHit>& out) const {
  for (const auto& keyword : keywords_) {
    if (keyword.empty() || keyword.size() > data.size()) continue;
    auto it = data.begin();
    while (true) {
      it = std::search(it, data.end(), keyword.begin(), keyword.end());
      if (it == data.end()) break;
      KeywordHit hit;
      hit.file = file;
      hit.path = path;
      hit.region = region;
      hit.offset = static_cast<std::size_t>(it - data.begin());
      hit.keyword = keyword;
      const std::size_t ctx_begin = hit.offset >= 8 ? hit.offset - 8 : 0;
      const std::size_t ctx_end =
          std::min(hit.offset + keyword.size() + 8, data.size());
      hit.context.assign(data.begin() + static_cast<std::ptrdiff_t>(ctx_begin),
                         data.begin() + static_cast<std::ptrdiff_t>(ctx_end));
      out.push_back(std::move(hit));
      ++it;  // continue after this match position
    }
  }
}

Result<std::vector<KeywordHit>> KeywordSearcher::search(
    const DiskImage& image, const legal::GrantedAuthority& authority,
    legal::ProcessKind required, const std::string& location, SimTime now,
    const std::function<bool(const std::string&)>& path_in_scope) const {
  const Status admitted =
      legal::admit({legal::AdmissionSite::kKeywordSearch, {}, required,
                    legal::DataKind::kContent, location, now}, authority);
  if (!admitted.ok()) return admitted;

  std::vector<KeywordHit> hits;
  for (const auto& f : image.files()) {
    if (path_in_scope && !path_in_scope(f.path)) continue;

    if (!f.deleted) {
      auto content = image.read_file(f.id);
      if (content.ok()) {
        scan_region(content.value(), f.id, f.path, HitRegion::kLiveFile, hits);
      }
      auto slack = image.slack_bytes(f.id);
      if (slack.ok() && !slack.value().empty()) {
        scan_region(slack.value(), f.id, f.path, HitRegion::kSlack, hits);
      }
    } else {
      auto content = image.recover_deleted(f.id);
      if (content.ok()) {
        scan_region(content.value(), f.id, f.path, HitRegion::kDeletedFile,
                    hits);
      }
    }
  }
  return hits;
}

}  // namespace lexfor::diskimage
