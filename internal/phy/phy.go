// Package phy models 802.11n PHY-layer timing: MCS rate tables, A-MPDU
// framing sizes and transmission durations.
//
// The framing and timing equations follow §2.2.1 of Høiland-Jørgensen et
// al. (USENIX ATC 2017), which in turn follows Kim et al.:
//
//	L(n, l)  = n · (l + Ldelim + Lmac + LFCS + Lpad)        (eq. 1)
//	Tdata    = Tphy + 8·L/r                                  (eq. 2)
//	R        = n·l / (Tdata + Toh)                           (eq. 3)
//	Toh      = DIFS + SIFS + Tack + TBO
//	Tack     = SIFS + 8·58/r
//	TBO      = slot · CWmin/2
package phy

import (
	"fmt"

	"repro/internal/sim"
)

// MAC/PHY constants from the paper (802.11n, 5 GHz OFDM).
const (
	TPhy  = 32 * sim.Microsecond // HT PHY preamble + header
	TDIFS = 34 * sim.Microsecond
	TSIFS = 16 * sim.Microsecond
	TSlot = 9 * sim.Microsecond

	CWMin = 15 // BE default contention window (slots)
	CWMax = 1023

	LDelim = 4  // MPDU delimiter bytes
	LMac   = 34 // MAC header bytes (QoS data, 3 addresses, HT control)
	LFCS   = 4  // frame check sequence bytes

	BlockAckBytes = 58 // the paper models the BA response as 58 bytes at the data rate

	// TPhyLegacy is the long-preamble DSSS PLCP duration, used for the
	// 1 Mbps station in the 30-node experiment.
	TPhyLegacy = 192 * sim.Microsecond

	// RTSCTSOverhead is the air time of an RTS/CTS exchange preceding a
	// protected transmission: RTS (20 B) and CTS (14 B) at the 24 Mbps
	// OFDM basic rate with 20 µs preambles, plus two SIFS.
	RTSCTSOverhead = 84 * sim.Microsecond

	// RTSDur is the channel time wasted when a protected transmission
	// collides: the RTS plus the CTS timeout.
	RTSDur = 44 * sim.Microsecond
)

// Rate describes one PHY transmission rate.
type Rate struct {
	Name     string
	BitsPerS float64 // PHY data rate in bits/second
	Legacy   bool    // true for pre-11n rates: long preamble, no aggregation
}

// Mbps reports the PHY rate in megabits per second.
func (r Rate) Mbps() float64 { return r.BitsPerS / 1e6 }

func (r Rate) String() string { return r.Name }

// Valid reports whether the rate is usable.
func (r Rate) Valid() bool { return r.BitsPerS > 0 }

// htBase holds HT20 long-GI rates in Mbps for MCS 0-7 (one spatial
// stream). MCS 8-15 double them with a second stream.
var htBase = [8]float64{6.5, 13, 19.5, 26, 39, 52, 58.5, 65}

// MCS returns the HT20 rate for the given MCS index (0-15), with or
// without short guard interval. It panics on an out-of-range index.
func MCS(index int, shortGI bool) Rate {
	if index < 0 || index > 15 {
		panic(fmt.Sprintf("phy: MCS index %d out of range", index))
	}
	mbps := htBase[index%8]
	if index >= 8 {
		mbps *= 2
	}
	gi := "LGI"
	if shortGI {
		mbps = mbps * 10 / 9
		gi = "SGI"
	}
	return Rate{
		Name:     fmt.Sprintf("MCS%d-HT20-%s", index, gi),
		BitsPerS: mbps * 1e6,
	}
}

// Legacy returns a pre-11n rate (e.g. 1, 2, 5.5, 11 Mbps DSSS). Legacy
// rates cannot aggregate and pay the long DSSS preamble.
func Legacy(mbps float64) Rate {
	return Rate{
		Name:     fmt.Sprintf("legacy-%gMbps", mbps),
		BitsPerS: mbps * 1e6,
		Legacy:   true,
	}
}

// MPDUOverhead is the per-MPDU framing overhead before padding.
const MPDUOverhead = LDelim + LMac + LFCS

// MPDULen returns the framed size of one l-byte packet inside an A-MPDU,
// including delimiter, MAC header, FCS and padding to a 4-byte boundary
// (eq. 1, per-packet term).
func MPDULen(l int) int {
	n := l + MPDUOverhead
	if rem := n % 4; rem != 0 {
		n += 4 - rem
	}
	return n
}

// AMPDULen returns L(n, l): the total frame body for n packets of l bytes
// each (eq. 1).
func AMPDULen(n, l int) int { return n * MPDULen(l) }

// bitsDur converts a payload of the given bits at rate r into air time.
func bitsDur(bits int, r Rate) sim.Time {
	return sim.Time(float64(bits) / r.BitsPerS * 1e9)
}

// DataDur returns Tdata(n, l, r): PHY header plus frame body air time for
// an aggregate of n packets of l bytes (eq. 2). For legacy rates the DSSS
// preamble is used and n must be 1.
func DataDur(n, l int, r Rate) sim.Time {
	if r.Legacy {
		if n != 1 {
			panic("phy: legacy rates cannot aggregate")
		}
		// No A-MPDU framing: MAC header + FCS only.
		return TPhyLegacy + bitsDur(8*(l+LMac+LFCS), r)
	}
	return TPhy + bitsDur(8*AMPDULen(n, l), r)
}

// DataDurBytes returns the air time for an aggregate whose framed body is
// already computed as frameBytes (sum of MPDULen over its packets).
func DataDurBytes(frameBytes int, r Rate) sim.Time {
	if r.Legacy {
		return TPhyLegacy + bitsDur(8*frameBytes, r)
	}
	return TPhy + bitsDur(8*frameBytes, r)
}

// AckDur returns Tack for rate r: the block acknowledgement response time,
// SIFS + the 58-byte BA at the data rate (the paper's simplification).
func AckDur(r Rate) sim.Time {
	return TSIFS + bitsDur(8*BlockAckBytes, r)
}

// MeanBackoff returns TBO, the average backoff with an empty network:
// slot · CWmin/2.
func MeanBackoff(cwMin int) sim.Time {
	return sim.Time(float64(TSlot) * float64(cwMin) / 2)
}

// Overhead returns Toh for rate r with the given CWmin: DIFS + SIFS +
// Tack + TBO (eq. 3 denominator term).
func Overhead(r Rate, cwMin int) sim.Time {
	return TDIFS + TSIFS + AckDur(r) + MeanBackoff(cwMin)
}

// TxTime returns the full channel occupancy of one aggregate transmission
// including acknowledgement: Tdata + SIFS + BA. It excludes inter-frame
// spacing and backoff, which the MAC model accounts separately.
func TxTime(n, l int, r Rate) sim.Time {
	return DataDur(n, l, r) + AckDur(r)
}

// EffectiveRate returns R(n, l, r) in bits/second: the expected goodput of
// a station transmitting n·l-byte aggregates back to back (eq. 3).
func EffectiveRate(n, l int, r Rate) float64 {
	t := DataDur(n, l, r) + Overhead(r, CWMin)
	return float64(8*n*l) / t.Seconds()
}

// FitBytes returns the largest framed body length whose air time at r
// does not exceed maxDur: frameBytes fit under the cap exactly when
// frameBytes <= FitBytes(r, maxDur), because DataDurBytes is monotone
// non-decreasing in the byte count. Returns -1 when nothing fits.
func FitBytes(r Rate, maxDur sim.Time) int {
	if DataDurBytes(0, r) > maxDur {
		return -1
	}
	hi := 1
	for hi < 1<<30 && DataDurBytes(hi, r) <= maxDur {
		hi <<= 1
	}
	lo := hi >> 1 // the last doubling that fit (0 when hi stayed 1)
	if DataDurBytes(hi, r) <= maxDur {
		lo = hi // doubling hit the cap while still fitting
	}
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if DataDurBytes(mid, r) <= maxDur {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
