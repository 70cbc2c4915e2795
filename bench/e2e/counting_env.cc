#include "counting_env.h"

#include <utility>

namespace priview::e2e {

// Forwards to the base Env's file; the base keeps its own poisoning, so a
// failed append or sync is reported exactly as the base reported it.
class CountingEnv::CountingFile final : public WritableFile {
 public:
  CountingFile(std::unique_ptr<WritableFile> base, CountingEnv* env)
      : base_(std::move(base)), env_(env) {}

 protected:
  Status DoAppend(std::string_view data) override {
    const Status st = base_->Append(data);
    if (st.ok()) {
      env_->bytes_appended_.fetch_add(data.size(), std::memory_order_relaxed);
    }
    return st;
  }
  Status DoSync() override {
    env_->file_syncs_.fetch_add(1, std::memory_order_relaxed);
    return base_->Sync();
  }
  Status DoClose() override { return base_->Close(); }

 private:
  std::unique_ptr<WritableFile> base_;
  CountingEnv* const env_;
};

CountingEnv::Counts CountingEnv::counts() const {
  Counts c;
  c.bytes_appended = bytes_appended_.load(std::memory_order_relaxed);
  c.file_syncs = file_syncs_.load(std::memory_order_relaxed);
  c.dir_syncs = dir_syncs_.load(std::memory_order_relaxed);
  c.renames = renames_.load(std::memory_order_relaxed);
  return c;
}

StatusOr<std::unique_ptr<WritableFile>> CountingEnv::NewWritableFile(
    const std::string& path, bool append) {
  StatusOr<std::unique_ptr<WritableFile>> file =
      base_->NewWritableFile(path, append);
  if (!file.ok()) return file.status();
  return std::unique_ptr<WritableFile>(
      std::make_unique<CountingFile>(std::move(file).value(), this));
}

Status CountingEnv::RenameFile(const std::string& from,
                               const std::string& to) {
  renames_.fetch_add(1, std::memory_order_relaxed);
  return base_->RenameFile(from, to);
}

Status CountingEnv::SyncDir(const std::string& path) {
  dir_syncs_.fetch_add(1, std::memory_order_relaxed);
  return base_->SyncDir(path);
}

Status CountingEnv::Truncate(const std::string& path, uint64_t size,
                             bool sync) {
  if (sync) file_syncs_.fetch_add(1, std::memory_order_relaxed);
  return base_->Truncate(path, size, sync);
}

}  // namespace priview::e2e
