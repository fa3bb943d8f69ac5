package coapserver

import (
	"bytes"
	"testing"

	"iothub/internal/apps"
	"iothub/internal/coapmsg"
	"iothub/internal/jsonlite"
)

func computeWindow(t *testing.T, a *App, w int) apps.Result {
	t.Helper()
	in, err := apps.CollectWindow(a, w)
	if err != nil {
		t.Fatalf("collect: %v", err)
	}
	res, err := a.Compute(in)
	if err != nil {
		t.Fatalf("compute: %v", err)
	}
	return res
}

func TestServesParseableCoAPReplies(t *testing.T) {
	a, err := New(21)
	if err != nil {
		t.Fatal(err)
	}
	res := computeWindow(t, a, 0)
	blocks := int(res.Metrics["blocks"])
	if blocks < 2 {
		t.Fatalf("blocks = %d, want a multi-block history", blocks)
	}
	// Window 0: 3 resource GETs + 1 observe registration + history blocks.
	if got := int(res.Metrics["exchanges"]); got != 4+blocks {
		t.Fatalf("exchanges = %d, want 4 + %d blocks", got, blocks)
	}
	frames, err := SplitReplies(res.Upstream)
	if err != nil {
		t.Fatalf("SplitReplies: %v", err)
	}
	if len(frames) != 4+blocks {
		t.Fatalf("frames = %d, want %d", len(frames), 4+blocks)
	}
	wantCodes := []coapmsg.Code{coapmsg.CodeContent, coapmsg.CodeContent, coapmsg.CodeNotFound}
	for i, f := range frames[:3] {
		reply, err := coapmsg.Unmarshal(f)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if reply.Code != wantCodes[i] {
			t.Errorf("frame %d code = %v, want %v", i, reply.Code, wantCodes[i])
		}
		if reply.Type != coapmsg.Acknowledgement {
			t.Errorf("frame %d type = %v, want ACK", i, reply.Type)
		}
	}
	// Frame 3 is the observe registration confirmation.
	regReply, err := coapmsg.Unmarshal(frames[3])
	if err != nil {
		t.Fatalf("registration reply: %v", err)
	}
	if _, err := regReply.ObserveValue(); err != nil {
		t.Errorf("registration reply missing Observe: %v", err)
	}
	if res.Metrics["observers"] != 1 {
		t.Errorf("observers = %v, want 1", res.Metrics["observers"])
	}
	// History frames carry Block2; the final one has More=false.
	for i, f := range frames[4:] {
		reply, err := coapmsg.Unmarshal(f)
		if err != nil {
			t.Fatalf("history frame %d: %v", i, err)
		}
		blk, found, err := reply.BlockOption(coapmsg.OptBlock2)
		if err != nil || !found {
			t.Fatalf("history frame %d missing Block2 (%v)", i, err)
		}
		if int(blk.Num) != i {
			t.Errorf("history frame %d numbered %d", i, blk.Num)
		}
		wantMore := i != blocks-1
		if blk.More != wantMore {
			t.Errorf("history frame %d More = %v, want %v", i, blk.More, wantMore)
		}
	}
	if _, err := SplitReplies(res.Upstream[:1]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := SplitReplies(res.Upstream[:5]); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestHistoryDocumentIsCompleteJSON(t *testing.T) {
	a, err := New(21)
	if err != nil {
		t.Fatal(err)
	}
	res := computeWindow(t, a, 0)
	if res.Metrics["historyBytes"] < 1000 {
		t.Errorf("history = %v bytes, want a large document", res.Metrics["historyBytes"])
	}
	in, err := apps.CollectWindow(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := a.history(in)
	if err != nil {
		t.Fatal(err)
	}
	v, err := jsonlite.Parse(doc)
	if err != nil {
		t.Fatalf("history not valid JSON: %v", err)
	}
	lux, ok := v.(map[string]any)["lux"].([]any)
	if !ok || len(lux) != 1000 {
		t.Errorf("lux array = %d entries, want 1000", len(lux))
	}
}

func TestReplyPayloadIsAggregatedJSON(t *testing.T) {
	a, err := New(21)
	if err != nil {
		t.Fatal(err)
	}
	in, err := apps.CollectWindow(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := &coapmsg.Message{Type: coapmsg.Confirmable, Code: coapmsg.CodeGET, MessageID: 9}
	req.AddOption(coapmsg.OptUriPath, []byte("sensors"))
	req.AddOption(coapmsg.OptUriPath, []byte("light"))
	reply, err := a.serve(req, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := jsonlite.Parse(reply.Payload)
	if err != nil {
		t.Fatalf("payload: %v", err)
	}
	doc := v.(map[string]any)
	if doc["resource"] != "light" || doc["n"] != 1000.0 {
		t.Errorf("payload = %v", doc)
	}
	mean, ok := doc["mean"].(float64)
	if !ok || mean < 100 || mean > 600 {
		t.Errorf("mean = %v, want plausible lux", doc["mean"])
	}
}

func TestServeErrorPaths(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := apps.CollectWindow(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	miss := &coapmsg.Message{Type: coapmsg.Confirmable, Code: coapmsg.CodeGET, MessageID: 1}
	miss.AddOption(coapmsg.OptUriPath, []byte("sensors"))
	miss.AddOption(coapmsg.OptUriPath, []byte("nonexistent"))
	reply, err := a.serve(miss, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Code != coapmsg.CodeNotFound {
		t.Errorf("missing resource code = %v, want 4.04", reply.Code)
	}
	bad := &coapmsg.Message{Type: coapmsg.Confirmable, Code: coapmsg.CodeGET, MessageID: 2}
	reply, err = a.serve(bad, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Code != coapmsg.CodeBadReq {
		t.Errorf("pathless request code = %v, want 4.00", reply.Code)
	}
}

func TestMessageIDsAdvanceAcrossWindows(t *testing.T) {
	a, err := New(2)
	if err != nil {
		t.Fatal(err)
	}
	computeWindow(t, a, 0)
	frames, err := SplitReplies(computeWindow(t, a, 1).Upstream)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := coapmsg.Unmarshal(frames[0])
	if err != nil {
		t.Fatal(err)
	}
	if r1.MessageID <= 3 {
		t.Errorf("window 1 first message id = %d, want > 3", r1.MessageID)
	}
}

func TestSpecMatchesTableII(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	irq, err := a.Spec().InterruptsPerWindow()
	if err != nil || irq != 2000 {
		t.Errorf("interrupts = %d, want 2000", irq)
	}
}

func TestObserveNotificationsInLaterWindows(t *testing.T) {
	a, err := New(21)
	if err != nil {
		t.Fatal(err)
	}
	computeWindow(t, a, 0) // registers one observer
	res := computeWindow(t, a, 1)
	if res.Metrics["notifications"] != 1 {
		t.Fatalf("notifications = %v, want 1", res.Metrics["notifications"])
	}
	frames, err := SplitReplies(res.Upstream)
	if err != nil {
		t.Fatal(err)
	}
	// Frame 3 of window 1 is the notification (after the 3 resource GETs).
	note, err := coapmsg.Unmarshal(frames[3])
	if err != nil {
		t.Fatal(err)
	}
	seq, err := note.ObserveValue()
	if err != nil {
		t.Fatalf("notification missing Observe: %v", err)
	}
	if seq < 2 {
		t.Errorf("sequence = %d", seq)
	}
	if string(note.Token) != "\x0b\x5e" {
		t.Errorf("token = %x, want the registrant's", note.Token)
	}
	v, err := jsonlite.Parse(note.Payload)
	if err != nil {
		t.Fatalf("notification payload: %v", err)
	}
	if v.(map[string]any)["window"] != 1.0 {
		t.Errorf("payload = %v", v)
	}
	// Window 2's notification advances the sequence.
	res2 := computeWindow(t, a, 2)
	frames2, err := SplitReplies(res2.Upstream)
	if err != nil {
		t.Fatal(err)
	}
	note2, err := coapmsg.Unmarshal(frames2[3])
	if err != nil {
		t.Fatal(err)
	}
	seq2, err := note2.ObserveValue()
	if err != nil {
		t.Fatal(err)
	}
	if seq2 <= seq {
		t.Errorf("sequence %d then %d, want increasing", seq, seq2)
	}
}

// Every Block2 reply of one transfer is cut from one representation (RFC
// 7959 §2.4): all replies announce the same Size2, and the blocks assemble
// to one history rendering of the window byte for byte.
func TestHistoryBlocksShareOneRepresentation(t *testing.T) {
	a, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 3; w++ {
		in, err := apps.CollectWindow(a, w)
		if err != nil {
			t.Fatal(err)
		}
		want, err := a.history(in)
		if err != nil {
			t.Fatal(err)
		}
		res, err := a.Compute(in)
		if err != nil {
			t.Fatal(err)
		}
		frames, err := SplitReplies(res.Upstream)
		if err != nil {
			t.Fatal(err)
		}
		var doc []byte
		blocks := 0
		for _, f := range frames {
			reply, err := coapmsg.Unmarshal(f)
			if err != nil {
				t.Fatal(err)
			}
			if _, found, _ := reply.BlockOption(coapmsg.OptBlock2); !found {
				continue
			}
			size := -1
			for _, o := range reply.Options {
				if o.ID == coapmsg.OptSize2 {
					size = 0
					for _, b := range o.Value {
						size = size<<8 | int(b)
					}
				}
			}
			if size != len(want) {
				t.Errorf("window %d block %d: Size2 = %d, want %d", w, blocks, size, len(want))
			}
			doc = append(doc, reply.Payload...)
			blocks++
		}
		if blocks != int(res.Metrics["blocks"]) {
			t.Errorf("window %d: %d Block2 replies, want %v", w, blocks, res.Metrics["blocks"])
		}
		if !bytes.Equal(doc, want) {
			t.Errorf("window %d: assembled %d bytes differ from the %d-byte rendering", w, len(doc), len(want))
		}
	}
}

// BenchmarkCompute measures one A1 window: the resource GETs, the observe
// traffic and the blockwise history fetch, each over the CoAP wire format.
func BenchmarkCompute(b *testing.B) {
	a, err := New(1)
	if err != nil {
		b.Fatal(err)
	}
	in, err := apps.CollectWindow(a, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := a.Compute(in); err != nil {
			b.Fatal(err)
		}
	}
}
