#include "stack.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "client/tcp_transport.h"
#include "repl/digest.h"
#include "trace.h"

namespace perfbench {

namespace fs = std::filesystem;
using recpriv::Result;
using recpriv::Status;
using recpriv::serve::SnapshotPtr;
using recpriv::serve::StoreEvent;

Result<PublishFeed> PublishFeed::Make(
    const recpriv::table::Table& rows,
    const recpriv::core::PrivacyParams& params, uint64_t seed) {
  PublishFeed feed;
  feed.rows = &rows;
  RECPRIV_ASSIGN_OR_RETURN(
      recpriv::core::StreamingPublisher publisher,
      recpriv::core::StreamingPublisher::Make(rows.schema(), params));
  feed.publisher = std::make_unique<recpriv::core::StreamingPublisher>(
      std::move(publisher));
  feed.rng = recpriv::Rng(seed);
  return feed;
}

Status PublishFeed::Insert(size_t n) {
  if (next_row + n > rows->num_rows()) {
    return Status::OutOfRange("publish feed ran out of generated rows");
  }
  std::vector<uint32_t> row(rows->num_columns());
  for (size_t r = next_row; r < next_row + n; ++r) {
    for (size_t c = 0; c < row.size(); ++c) row[c] = rows->at(r, c);
    RECPRIV_RETURN_NOT_OK(publisher->Insert(row));
  }
  next_row += n;
  return Status::OK();
}

Result<std::unique_ptr<Stack>> Stack::Start(const std::string& dir) {
  std::unique_ptr<Stack> s(new Stack());
  s->dir_ = dir;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir + "/primary", ec);
  fs::create_directories(dir + "/follower", ec);
  if (ec) return Status::IOError("cannot create " + dir + ": " + ec.message());

  recpriv::serve::ReleaseStore::Options primary;
  primary.snapshot_dir = dir + "/primary";
  s->store_ = std::make_shared<recpriv::serve::ReleaseStore>(primary);
  s->engine_ = std::make_shared<recpriv::serve::QueryEngine>(s->store_);
  s->provider_ = std::make_unique<recpriv::repl::SnapshotProvider>(*s->store_);
  recpriv::serve::ServerOptions server_options;
  server_options.snapshot_provider = s->provider_.get();
  RECPRIV_ASSIGN_OR_RETURN(
      s->server_, recpriv::serve::Server::Start(s->engine_, server_options));

  recpriv::serve::ReleaseStore::Options follower;
  follower.snapshot_dir = dir + "/follower";
  s->follower_store_ = std::make_shared<recpriv::serve::ReleaseStore>(follower);
  Stack* self = s.get();
  s->follower_listener_ =
      s->follower_store_->AddListener([self](const StoreEvent& e) {
        if (e.kind != StoreEvent::Kind::kInstall || e.snapshot == nullptr) {
          return;
        }
        std::lock_guard<std::mutex> lock(self->mu_);
        self->follower_digests_[e.epoch] = e.snapshot->content_digest;
      });
  recpriv::repl::ReplicatorOptions repl_options;
  repl_options.primary_port = s->server_->port();
  RECPRIV_ASSIGN_OR_RETURN(
      s->replicator_,
      recpriv::repl::Replicator::Start(*s->follower_store_, repl_options));
  return s;
}

Stack::~Stack() {
  Stop();
  std::error_code ec;
  fs::remove_all(dir_, ec);
}

void Stack::Stop() {
  if (replicator_ != nullptr) replicator_->Stop();
  if (server_ != nullptr) server_->Stop();
  if (follower_listener_ != 0) {
    follower_store_->RemoveListener(follower_listener_);
    follower_listener_ = 0;
  }
}

Result<PublishRecord> Stack::Publish(PublishFeed& feed, size_t delta_rows,
                                     int follower_timeout_ms) {
  PublishRecord rec;
  rec.delta_rows = delta_rows;
  RECPRIV_RETURN_NOT_OK(feed.Insert(delta_rows));
  const int64_t t0 = NowNs();
  RECPRIV_ASSIGN_OR_RETURN(
      SnapshotPtr snap,
      store_->PublishIncremental(kRelease, *feed.publisher, feed.rng));
  const int64_t t1 = NowNs();
  rec.publish_ms = double(t1 - t0) / 1e6;
  rec.epoch = snap->epoch;
  rec.content_digest = snap->content_digest;
  RECPRIV_ASSIGN_OR_RETURN(std::string path,
                           store_->ManagedSnapshotPath(kRelease, rec.epoch));
  std::error_code ec;
  rec.snapshot_bytes = uint64_t(fs::file_size(path, ec));
  if (ec) return Status::IOError("cannot stat " + path);
  if (replicator_->WaitForEpoch(kRelease, rec.epoch, follower_timeout_ms)) {
    rec.lag_ms = double(NowNs() - t1) / 1e6;
  }
  return rec;
}

Result<std::unique_ptr<recpriv::client::LineProtocolClient>> Stack::Connect()
    const {
  recpriv::client::TcpTransportOptions options;
  options.response_timeout_ms = 20000;
  return recpriv::client::ConnectTcp("127.0.0.1", server_->port(), options);
}

std::map<uint64_t, uint64_t> Stack::FollowerDigests() const {
  std::lock_guard<std::mutex> lock(mu_);
  return follower_digests_;
}

std::pair<uint64_t, uint64_t> Stack::CompareRetainedImages() const {
  uint64_t compared = 0, mismatched = 0;
  auto window = follower_store_->Window(kRelease);
  if (!window.ok()) return {0, 0};
  for (const SnapshotPtr& snap : *window) {
    auto primary = store_->ManagedSnapshotPath(kRelease, snap->epoch);
    auto mirror = follower_store_->ManagedSnapshotPath(kRelease, snap->epoch);
    if (!primary.ok() || !mirror.ok() || !fs::exists(*primary)) continue;
    auto a = recpriv::repl::FileDigest(*primary);
    auto b = recpriv::repl::FileDigest(*mirror);
    ++compared;
    if (!a.ok() || !b.ok() || *a != *b) ++mismatched;
  }
  return {compared, mismatched};
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // in kB
    }
  }
  return 0.0;
}

Status ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  if (!clear) return Status::IOError("cannot reset the peak resident set");
  return Status::OK();
}

}  // namespace perfbench
