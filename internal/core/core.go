package core

import "repro/internal/sim"

// delayClass names a class of protocol events scheduled with one fixed
// delay. A class's events arrive in the engine's order, so each class
// shares one event lane per engine (sim.Engine.SharedLane).
type delayClass int

const (
	// A signalling exchange arms its retransmission timer one
	// RetransmitInterval out; only its backoffs take other delays.
	signalRetries delayClass = iota
	buRetries
	buRefreshes
	// A session's lifetime has one delay per role: the PAR's (and a
	// link-layer handoff's) from the BI, the NAR's from the HI.
	parSessionLifetimes
	narSessionLifetimes
	graceDelays
	fallbackRouteLifetimes
	pcoaHolds
	// A BI's start instant is its host's clock plus StartOffset.
	redirectStarts
)

// newClassTimer returns a timer whose expiries go to its class's lane.
func newClassTimer(engine *sim.Engine, class delayClass, fn sim.Handler) *sim.Timer {
	return sim.NewTimerIn(engine, engine.SharedLane(class), fn)
}
