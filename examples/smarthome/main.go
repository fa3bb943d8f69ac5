// Smart home: a hub running the building's CoAP server, the AT&T M2X cloud
// reporter, and the Blynk dashboard concurrently. Compares the prior art
// (BEAM sensor sharing) against this paper's approach (the planner decides,
// then Batching/COM executes), printing the upstream documents each app
// actually produced.
//
//	go run ./examples/smarthome
package main

import (
	"fmt"
	"log"

	"iothub/internal/apps"
	"iothub/internal/apps/catalog"
	"iothub/internal/core"
	"iothub/internal/hub"
)

const windows = 3

// home is the building's app mix, in the order the example reports it.
var home = []apps.ID{apps.CoAPServer, apps.M2X, apps.Blynk}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func newMix() ([]apps.App, error) {
	var mix []apps.App
	for _, id := range home {
		a, err := catalog.New(id, 7)
		if err != nil {
			return nil, err
		}
		mix = append(mix, a)
	}
	return mix, nil
}

func measure(scheme hub.Scheme, assign map[apps.ID]hub.Mode) (*hub.RunResult, error) {
	mix, err := newMix()
	if err != nil {
		return nil, err
	}
	return hub.Run(hub.Config{Apps: mix, Scheme: scheme, Assign: assign, Windows: windows})
}

func run() error {
	base, err := measure(hub.Baseline, nil)
	if err != nil {
		return err
	}
	beam, err := measure(hub.BEAM, nil)
	if err != nil {
		return err
	}

	// The paper's approach: classify, then offload what fits.
	mix, err := newMix()
	if err != nil {
		return err
	}
	plan, err := core.PlanBCOM(mix, hub.DefaultParams())
	if err != nil {
		return err
	}
	fmt.Println("planner decisions:")
	for _, id := range home {
		cls := plan.Classifications[id]
		fmt.Printf("  %-4s offloadable=%-5v mcuBusy=%v mem=%dB\n",
			id, cls.Offloadable, cls.MCUBusyPerWindow, cls.MemoryNeedBytes)
	}
	planned, err := hub.Run(hub.Config{
		Apps: mix, Scheme: plan.Scheme, Assign: assignFor(plan), Windows: windows,
	})
	if err != nil {
		return err
	}

	fmt.Printf("\nenergy per window:\n")
	fmt.Printf("  Baseline        %7.0f mJ\n", base.TotalJoules()*1000/windows)
	fmt.Printf("  BEAM (prior)    %7.0f mJ  (-%.0f%%)\n",
		beam.TotalJoules()*1000/windows, 100*(1-beam.TotalJoules()/base.TotalJoules()))
	fmt.Printf("  %-8v        %7.0f mJ  (-%.0f%%)\n\n",
		plan.Scheme, planned.TotalJoules()*1000/windows,
		100*(1-planned.TotalJoules()/base.TotalJoules()))

	// What the home actually reported upstream in the last window.
	for _, id := range home {
		outs := planned.Outputs[id]
		last := outs[len(outs)-1]
		fmt.Printf("%s: %s\n", id, last.Result.Summary)
	}
	return nil
}

// assignFor adapts a plan to hub.Config.Assign, which must be nil unless the
// scheme is BCOM.
func assignFor(plan *core.Plan) map[apps.ID]hub.Mode {
	if plan.Scheme == hub.BCOM {
		return plan.Assign
	}
	return nil
}
