// Tests for the PolarFS model: chunk provisioning/placement, volume writes
// fanning to replicas, and the PageStore adapter.
#include <gtest/gtest.h>

#include "src/polarfs/polarfs.h"

namespace polarx {
namespace {

PolarFsOptions SmallChunks() {
  PolarFsOptions o;
  o.chunk_size_bytes = 1 << 20;  // 1 MB chunks for tests
  o.replicas_per_chunk = 3;
  return o;
}

TEST(PolarFsTest, VolumeNeedsEnoughServers) {
  PolarFs fs(SmallChunks());
  fs.AddChunkServer();
  fs.AddChunkServer();
  EXPECT_FALSE(fs.CreateVolume().ok());
  fs.AddChunkServer();
  EXPECT_TRUE(fs.CreateVolume().ok());
}

TEST(PolarFsTest, ChunksProvisionedOnDemand) {
  PolarFs fs(SmallChunks());
  for (int i = 0; i < 4; ++i) fs.AddChunkServer();
  auto vol = fs.CreateVolume();
  ASSERT_TRUE(vol.ok());
  EXPECT_EQ((*vol)->num_chunks(), 0u);
  // A write beyond the current size grows the volume.
  ASSERT_TRUE(fs.Write((*vol)->id(), 0, 100).ok());
  EXPECT_EQ((*vol)->num_chunks(), 1u);
  ASSERT_TRUE(fs.Write((*vol)->id(), (3 << 20) - 10, 20).ok());
  EXPECT_EQ((*vol)->num_chunks(), 4u) << "write spanning into 4th MB";
}

TEST(PolarFsTest, EachChunkHasThreeReplicas) {
  PolarFs fs(SmallChunks());
  for (int i = 0; i < 5; ++i) fs.AddChunkServer();
  auto vol = fs.CreateVolume();
  ASSERT_TRUE(vol.ok());
  ASSERT_TRUE(fs.Write((*vol)->id(), 0, 1).ok());
  for (const auto& [id, info] : fs.chunks()) {
    EXPECT_EQ(info.replicas.size(), 3u);
  }
}

TEST(PolarFsTest, PlacementBalancesAcrossServers) {
  PolarFs fs(SmallChunks());
  for (int i = 0; i < 6; ++i) fs.AddChunkServer();
  auto vol = fs.CreateVolume();
  ASSERT_TRUE(vol.ok());
  // 12 chunks * 3 replicas over 6 servers => 6 replicas each.
  ASSERT_TRUE(fs.Write((*vol)->id(), 0, 12ULL << 20).ok());
  for (const auto& server : fs.servers()) {
    EXPECT_EQ(server->NumReplicas(), 6u) << "server " << server->id();
  }
}

TEST(PolarFsTest, WriteFansOutToAllReplicas) {
  PolarFs fs(SmallChunks());
  for (int i = 0; i < 3; ++i) fs.AddChunkServer();
  auto vol = fs.CreateVolume();
  ASSERT_TRUE(vol.ok());
  ASSERT_TRUE(fs.Write((*vol)->id(), 0, 1000).ok());
  // 3 servers each hold one replica of the single chunk: 1000 bytes each.
  for (const auto& server : fs.servers()) {
    EXPECT_EQ(server->bytes_stored(), 1000u);
  }
  EXPECT_EQ(fs.total_bytes_written(), 1000u);
}

TEST(PolarFsTest, CrossChunkWriteSplits) {
  PolarFs fs(SmallChunks());
  for (int i = 0; i < 3; ++i) fs.AddChunkServer();
  auto vol = fs.CreateVolume();
  ASSERT_TRUE(vol.ok());
  uint64_t chunk = 1 << 20;
  ASSERT_TRUE(fs.Write((*vol)->id(), chunk - 100, 200).ok());
  EXPECT_EQ((*vol)->num_chunks(), 2u);
  uint64_t sum = 0;
  for (const auto& [id, info] : fs.chunks()) sum += info.bytes_written;
  EXPECT_EQ(sum, 200u);
}

TEST(PolarFsTest, CheckReadBounds) {
  PolarFs fs(SmallChunks());
  for (int i = 0; i < 3; ++i) fs.AddChunkServer();
  auto vol = fs.CreateVolume();
  ASSERT_TRUE(vol.ok());
  ASSERT_TRUE(fs.Write((*vol)->id(), 0, 100).ok());
  EXPECT_TRUE(fs.CheckRead((*vol)->id(), 0, 1 << 20).ok());
  EXPECT_FALSE(fs.CheckRead((*vol)->id(), 0, (1 << 20) + 1).ok());
  EXPECT_FALSE(fs.CheckRead(999, 0, 1).ok());
}

TEST(PolarFsTest, PageStoreAdapterWritesVolume) {
  PolarFs fs(SmallChunks());
  for (int i = 0; i < 3; ++i) fs.AddChunkServer();
  auto vol = fs.CreateVolume();
  ASSERT_TRUE(vol.ok());
  PolarFsPageStore store(&fs, (*vol)->id());
  BufferPool pool(&store);
  pool.MarkDirty(MakePageId(1, 5), 95, 100);
  pool.FlushUpTo(1000);
  EXPECT_EQ(store.pages_written(), 1u);
  EXPECT_GT(fs.total_bytes_written(), 0u);
}

}  // namespace
}  // namespace polarx
