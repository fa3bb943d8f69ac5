package core

import (
	"time"

	"iothub/internal/apps"
	"iothub/internal/hub"
	"iothub/internal/power"
)

// TypicalPowerBank returns a common 10 Ah, 5 V USB pack.
func TypicalPowerBank() power.Battery {
	return power.Battery{CapacityMAh: 10_000, Volts: 5}
}

// LifetimeEstimate is the projected runtime per scheme for one workload.
type LifetimeEstimate struct {
	Baseline time.Duration
	Batching time.Duration
	COM      time.Duration
}

// Lifetime projects how long a battery powers the hub running one workload
// under each scheme, using the analytic energy model (validated against the
// simulator by the Estimate tests). The battery is the simulator's own
// supply model, so the projection and the in-run ledger share one usable-
// joules calculation.
func Lifetime(spec apps.Spec, params hub.Params, battery power.Battery) (LifetimeEstimate, error) {
	joules, err := battery.UsableJoules()
	if err != nil {
		return LifetimeEstimate{}, err
	}
	est, err := Estimate(spec, params)
	if err != nil {
		return LifetimeEstimate{}, err
	}
	perWindow := spec.Window.Seconds()
	toLife := func(perWindowJ float64) time.Duration {
		if perWindowJ <= 0 {
			return 0
		}
		seconds := joules / (perWindowJ / perWindow)
		return time.Duration(seconds * float64(time.Second))
	}
	return LifetimeEstimate{
		Baseline: toLife(est.BaselineJoules),
		Batching: toLife(est.BatchingJoules),
		COM:      toLife(est.COMJoules),
	}, nil
}
