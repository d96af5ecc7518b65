package exp

import (
	"repro/internal/mac"
	"repro/internal/pkt"
	"repro/internal/sched"
)

// This file registers the two extension schemes the experiment layer
// contributes beyond the paper's five configurations. Both are pure
// registrations: they compose the MAC's integrated queue substrate with
// schedulers from package sched, without touching internal/mac — the
// extensibility the transmit-path registry exists to provide.
var (
	// SchemeAirtimeRR composes the integrated §3.1 queueing structure
	// with a strict round-robin station scheduler. As an ablation
	// between FQ-MAC (no station scheduling) and Airtime (deficit
	// scheduling) it isolates how much of the paper's §5 fairness gain
	// comes from deficit airtime accounting versus mere per-station
	// scheduling: round-robin equalises transmission opportunities, so a
	// slow station still consumes far more than an equal airtime share.
	SchemeAirtimeRR = mac.RegisterScheme("Airtime-RR", mac.Composition{
		Desc:     "integrated structure + round-robin station scheduler (deficit-accounting ablation)",
		Queueing: mac.IntegratedQueueing,
		Scheduler: func(_ *mac.Node, _ pkt.AC) sched.StationScheduler {
			return sched.NewRoundRobin()
		},
	})

	// SchemeWeightedAirtime is the paper's airtime scheduler with the
	// per-station weight knob the ath9k implementation exposes: a
	// station's deficit replenishment scales with its weight, giving it
	// a proportionally larger or smaller airtime share. Weights come
	// from NetConfig.Weights (default 1 everywhere, in which case
	// the scheme behaves exactly like Airtime).
	SchemeWeightedAirtime = mac.RegisterScheme("Weighted-Airtime", mac.Composition{
		Desc:     "integrated structure + weighted deficit airtime scheduler (ath9k weight knob)",
		Queueing: mac.IntegratedQueueing,
		Scheduler: func(n *mac.Node, _ pkt.AC) sched.StationScheduler {
			cfg := n.Config()
			return sched.NewWeightedAirtime(cfg.AirtimeQuantum, !cfg.DisableSparse)
		},
	})
)
