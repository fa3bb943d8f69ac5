package hub

// edgeCompute dispatches a window's app-specific computation to the upload
// tier: the batched window payload (already landed at the CPU) goes up the
// main radio as one burst, the edge container runs the computation, and the
// result notification re-enters finishWindow after the downlink leg.
// The hub's costs are the driver handoff and the airtime; the dominant
// compute energy moves to the edge's own meter track ("edge").

import (
	"iothub/internal/energy"
	"iothub/internal/sim"
)

func (r *runner) edgeCompute(st *appState, w int) {
	payload := st.uploadBytes[w]
	delete(st.uploadBytes, w)
	r.res.EdgeUploads++
	r.res.EdgeUploadBytes += payload

	// The host hands the burst to its radio for the driver cost; zero-byte
	// windows (every sample dropped) skip the airtime but still compute.
	err := r.cpu.ExecCall(r.params.UplinkDriverCPU, energy.DataTransfer, sim.Done{CB: r, Arg: sim.Arg{Op: opGovern}})
	if err != nil {
		r.fail(err)
		return
	}
	if payload == 0 {
		r.edgeSubmit(st, w)
		return
	}
	// radio.Transmit takes its completion as a func: one per upload.
	if err := r.mainRadio.Transmit(payload, energy.DataTransfer, func() { r.edgeSubmit(st, w) }); err != nil {
		r.fail(err)
	}
}

// edgeSubmit ships the uploaded window to the app's container; the result
// notification comes back as opEdgeResult.
func (r *runner) edgeSubmit(st *appState, w int) {
	err := r.edge.Submit(string(st.spec.ID), st.spec.MemoryBytes(), st.edgeMI,
		sim.Done{CB: r, Arg: sim.Arg{Op: opEdgeResult, I0: int64(w), I1: int64(st.idx)}})
	if err != nil {
		r.fail(err)
	}
}

// edgeResult fields the edge's result notification: a small host-side
// driver slice, after which the window closes like a CPU computation.
func (r *runner) edgeResult(st *appState, w int) {
	err := r.cpu.ExecCall(r.params.Edge.ResultCPU, energy.DataTransfer,
		sim.Done{CB: r, Arg: sim.Arg{Op: opComputeDone, I0: int64(w), I1: int64(st.idx)}})
	if err != nil {
		r.fail(err)
	}
}
