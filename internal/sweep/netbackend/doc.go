// Package netbackend implements the sweep coordination backend over HTTP:
// Server is the in-process heart of the gatherd coordinator (cmd/gatherd) —
// an append-only record log and a TTL lease table per named store, behind a
// small versioned JSON/bytes API — and Client is the
// sweep.Backend that workers point at it with gatherbench -coordinator.
//
// The wire protocol (ProtoVersion, FORMAT.md) is versioned separately from
// the on-disk record schema (sweep.SchemaVersion): record lines cross the
// wire as opaque JSONL bytes, so a schema bump never touches the transport
// and a transport change never invalidates stored records. Lease arbitration
// mirrors the filesystem backend's semantics exactly — one winner per group,
// fresh foreign leases respected, stale/corrupt/clock-skewed leases reclaimed
// — which the internal/sweep/backendtest conformance suite enforces against
// both implementations.
package netbackend
