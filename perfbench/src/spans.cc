#include "spans.h"

#include <fstream>

namespace perfbench {

std::vector<Span> SpanRecorder::Collect() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Span> all;
  for (const Buffer& b : buffers_) {
    all.insert(all.end(), b.spans().begin(), b.spans().end());
  }
  return all;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : Collect()) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"request\":" << s.request
        << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
