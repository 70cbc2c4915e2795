// CountingEnv: an Env decorator that forwards every call to a base Env
// (Env::Default() unless told otherwise) and counts what the store's write
// path costs — bytes appended, file and directory fsyncs, renames. Handed
// to SynopsisStore through StoreOptions::env, it measures the store from
// outside without touching src/store.
#ifndef PRIVIEW_BENCH_E2E_COUNTING_ENV_H_
#define PRIVIEW_BENCH_E2E_COUNTING_ENV_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"

namespace priview::e2e {

class CountingEnv final : public Env {
 public:
  struct Counts {
    uint64_t bytes_appended = 0;
    uint64_t file_syncs = 0;
    uint64_t dir_syncs = 0;
    uint64_t renames = 0;

    uint64_t fsyncs() const { return file_syncs + dir_syncs; }
  };

  explicit CountingEnv(Env* base = Env::Default()) : base_(base) {}

  Counts counts() const;

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool append = false) override;
  Status ReadFileToString(const std::string& path, std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status DeleteFile(const std::string& path) override {
    return base_->DeleteFile(path);
  }
  Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  Status SyncDir(const std::string& path) override;
  StatusOr<std::vector<std::string>> ListDir(const std::string& path) override {
    return base_->ListDir(path);
  }
  Status Truncate(const std::string& path, uint64_t size, bool sync) override;
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    return base_->FileSize(path);
  }
  bool FileExists(const std::string& path) override {
    return base_->FileExists(path);
  }

 private:
  class CountingFile;

  Env* const base_;
  std::atomic<uint64_t> bytes_appended_{0};
  std::atomic<uint64_t> file_syncs_{0};
  std::atomic<uint64_t> dir_syncs_{0};
  std::atomic<uint64_t> renames_{0};
};

}  // namespace priview::e2e

#endif  // PRIVIEW_BENCH_E2E_COUNTING_ENV_H_
