package traffic

import "repro/internal/stats"

// The measurement accessors the experiment layer's workloads read from
// this package's sinks and clients.

// RxBytes reports cumulative application bytes received.
func (s *UDPSink) RxBytes() int64 { return s.RcvdBytes }

// RTTSample exposes the accumulated round-trip-time distribution (ms).
func (p *Pinger) RTTSample() *stats.Sample { return &p.RTT }

// PLTSample exposes the accumulated page-load-time distribution (ms).
func (w *WebClient) PLTSample() *stats.Sample { return &w.PLT }
