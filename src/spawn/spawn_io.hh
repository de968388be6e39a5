/**
 * @file
 * Binary serialization of spawn-point lists — the payload format
 * shared by the artifact store's SpawnAnalysis and HintTable
 * entries.
 *
 * Layout: a u64 record count followed by one fixed-stride 28-byte
 * record per SpawnPoint — u64 triggerPc, u64 targetPc, u32 kind,
 * i32 func, u32 depMask — all little-endian. Record order is
 * preserved exactly, so a decoded analysis replays the original
 * point order bit for bit.
 */

#ifndef POLYFLOW_SPAWN_SPAWN_IO_HH
#define POLYFLOW_SPAWN_SPAWN_IO_HH

#include <string>
#include <string_view>
#include <vector>

#include "spawn/spawn_point.hh"

namespace polyflow {

/** Append the binary encoding of @p points to @p out. */
void encodeSpawnPoints(const std::vector<SpawnPoint> &points,
                       std::string &out);

/**
 * Decode a spawn-point payload produced by encodeSpawnPoints.
 * Returns false, leaving @p out untouched, on any structural
 * problem: short or oversized payload, or an out-of-range kind.
 */
bool decodeSpawnPoints(std::string_view payload,
                       std::vector<SpawnPoint> &out);

} // namespace polyflow

#endif // POLYFLOW_SPAWN_SPAWN_IO_HH
