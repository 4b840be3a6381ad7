// Package cache implements the in-network storage substrate of INRPP:
// the custody store that routers use to take temporary custody of chunks
// at a bottleneck (store-and-forward).
//
// The custody store is the quantity behind the paper's §3.3 sizing claim
// ("a 10GB cache after a 40Gbps link can hold incoming traffic for 2
// seconds"): a FIFO byte-budget queue that records occupancy high-water
// marks, time-weighted mean occupancy and per-chunk residency times, the
// numbers the custody experiment and chunknet sweeps report.
package cache
