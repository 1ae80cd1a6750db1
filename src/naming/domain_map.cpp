#include "naming/domain_map.hpp"

namespace shadow::naming {

ShadowId DomainDirectory::intern(const GlobalFileId& id) {
  auto it = forward_.find(id.key());
  if (it != forward_.end()) return it->second;
  const ShadowId sid = next_++;
  forward_.emplace(id.key(), sid);
  display_.emplace(sid, id.display());
  return sid;
}

void DomainDirectory::bind(const GlobalFileId& id, ShadowId sid) {
  forward_[id.key()] = sid;
  display_[sid] = id.display();
  if (sid >= next_) next_ = sid + 1;
}

std::optional<ShadowId> DomainDirectory::lookup(
    const GlobalFileId& id) const {
  auto it = forward_.find(id.key());
  if (it == forward_.end()) return std::nullopt;
  return it->second;
}

std::string DomainDirectory::to_mapping_file() const {
  std::string out;
  for (const auto& [key, sid] : forward_) {
    out += std::to_string(sid) + " " + key;
    auto d = display_.find(sid);
    if (d != display_.end()) out += " " + d->second;
    out += "\n";
  }
  return out;
}

DomainDirectory& DomainMap::domain(const std::string& domain_id) {
  return domains_[domain_id];
}

const DomainDirectory* DomainMap::find(const std::string& domain_id) const {
  auto it = domains_.find(domain_id);
  return it == domains_.end() ? nullptr : &it->second;
}

std::string DomainMap::cache_key(const GlobalFileId& id) {
  return id.domain + "/" + std::to_string(domain(id.domain).intern(id));
}

}  // namespace shadow::naming
