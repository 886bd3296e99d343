package serve

import (
	"net/http"
	"net/url"
	"testing"
)

// FuzzParseDeadline holds the deadline parser — fed straight from a header
// and a query parameter any client controls — to its contract: it never
// panics, and a budget it accepts is in [0, maxDeadlineBudget] (0 only for
// "no deadline"), so no caller can be handed a wrapped-negative duration.
func FuzzParseDeadline(f *testing.F) {
	f.Add("", "")
	f.Add("5000", "")
	f.Add("", "5000")
	f.Add("30", "86400000")
	f.Add("86400001", "")
	f.Add("9223372036855", "")        // ms * 1e6 wraps negative
	f.Add("", "9223372036854775807")  // max int64
	f.Add("99999999999999999999", "") // out of int64 range
	f.Add("-1", "0")
	f.Add("soon", "1e3")
	f.Add(" 5", "+5")
	f.Fuzz(func(t *testing.T, header, query string) {
		r := &http.Request{
			Header: http.Header{DeadlineHeader: []string{header}},
			URL:    &url.URL{RawQuery: url.Values{"deadline_ms": []string{query}}.Encode()},
		}
		budget, err := ParseDeadline(r)
		if err != nil {
			return
		}
		if budget < 0 || budget > maxDeadlineBudget {
			t.Fatalf("header %q query %q: accepted budget %v outside [0,%v]", header, query, budget, maxDeadlineBudget)
		}
		if budget == 0 && (header != "" || query != "") {
			t.Fatalf("header %q query %q: a present deadline parsed as no deadline", header, query)
		}
	})
}

// FuzzDecodeStreamFrame feeds raw frame bytes to the session decoder: it
// must never panic, and a frame it accepts must satisfy everything the
// session relies on downstream — sides within [1, maxImageDim], pixels
// exactly the planar 3*w*h, and a deadline_ms that is absent or a valid
// budget. Seeded with frameSeeds (the TestStreamBadFramesInBand bodies
// first); FuzzDecodeFrame holds the values themselves to encoding/json.
func FuzzDecodeStreamFrame(f *testing.F) {
	for _, s := range frameSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		frame, errMsg := decodeStreamFrame(raw)
		if (frame == nil) == (errMsg == nil) {
			t.Fatalf("frame %v and error %v: want exactly one", frame, errMsg)
		}
		if errMsg != nil {
			if errMsg.Type != MsgError || errMsg.Code != 400 {
				t.Fatalf("refusal type %q code %d, want error/400", errMsg.Type, errMsg.Code)
			}
			return
		}
		if frame.Width < 1 || frame.Height < 1 || frame.Width > maxImageDim || frame.Height > maxImageDim {
			t.Fatalf("accepted %dx%d outside [1,%d]", frame.Width, frame.Height, maxImageDim)
		}
		if len(frame.Pixels) != 3*frame.Width*frame.Height {
			t.Fatalf("accepted %d pixels for %dx%d", len(frame.Pixels), frame.Width, frame.Height)
		}
		if frame.DeadlineMs < 0 || frame.DeadlineMs > maxDeadlineBudget.Milliseconds() {
			t.Fatalf("accepted deadline_ms %d outside [0,%d]", frame.DeadlineMs, maxDeadlineBudget.Milliseconds())
		}
	})
}
