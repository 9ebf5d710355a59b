package chaos

import "fedtrans/internal/rng"

// Wire faults extend the injection harness across the process boundary:
// a networked agent (internal/netcoord) mangles its upload frame — cut
// short, corrupted, or never written — so the coordinator's frame
// validation and retry machinery can be exercised deterministically.
//
// Like training faults, every wire draw is a pure hash, but the key is
// the attempt's local-training seed rather than (round, client,
// attempt) coordinates: the seed is unique per attempt and known on
// both ends of the wire, so injection is independent of which
// connection (or how many agent processes) carries the request.

// WireFault is a transport-level failure injected into one upload.
type WireFault uint8

const (
	// WireNone: the frame is written intact.
	WireNone WireFault = iota
	// WireTruncate: the frame is cut off mid-write and the connection
	// drops — the coordinator sees an unexpected EOF inside a frame.
	WireTruncate
	// WireCorrupt: a payload byte is flipped after the CRC is computed —
	// the coordinator's frame checksum must reject it.
	WireCorrupt
	// WireDrop: the connection closes before the frame is written — the
	// coordinator sees a clean EOF where a response was due.
	WireDrop
)

// String names the wire fault for logs and test failures.
func (f WireFault) String() string {
	switch f {
	case WireNone:
		return "none"
	case WireTruncate:
		return "truncate"
	case WireCorrupt:
		return "corrupt"
	case WireDrop:
		return "drop"
	}
	return "unknown"
}

// WireConfig is a transport failure profile. Rates are per-upload
// probabilities in [0, 1]; their sum must not exceed 1. The zero value
// disables injection.
type WireConfig struct {
	// Seed drives the fault hash, independent of the training seed
	// being keyed on.
	Seed int64
	// TruncateRate is the probability an upload frame is cut short.
	TruncateRate float64
	// CorruptRate is the probability an upload frame fails its CRC.
	CorruptRate float64
	// DropRate is the probability the connection dies before the upload
	// frame is written.
	DropRate float64
}

// Enabled reports whether the profile injects anything.
func (c WireConfig) Enabled() bool {
	return c.TruncateRate > 0 || c.CorruptRate > 0 || c.DropRate > 0
}

// WireInjector draws wire faults for uploads. A nil *WireInjector is
// valid and injects nothing.
type WireInjector struct {
	cfg WireConfig
}

// NewWire returns an injector for the profile, or nil when the profile
// injects nothing.
func NewWire(cfg WireConfig) *WireInjector {
	if !cfg.Enabled() {
		return nil
	}
	return &WireInjector{cfg: cfg}
}

// Fault returns the wire failure of one upload, keyed by the attempt's
// local-training seed (itself an internal/rng key).
func (in *WireInjector) Fault(key int64) WireFault {
	if in == nil {
		return WireNone
	}
	u := unit(in.cfg.Seed, 0, int(key), 0, rng.ChaosWire)
	p := in.cfg.TruncateRate
	if u < p {
		return WireTruncate
	}
	p += in.cfg.CorruptRate
	if u < p {
		return WireCorrupt
	}
	p += in.cfg.DropRate
	if u < p {
		return WireDrop
	}
	return WireNone
}
