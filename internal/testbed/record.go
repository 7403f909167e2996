package testbed

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Recording is the replay record of one recorded run: the combined
// final-state digest, its per-component breakdown, the number of digest
// frames recorded, and whether a second execution reproduced every frame
// and the final digest (RunTwice). Reports serialize only the digest and
// the verdict.
type Recording struct {
	Digest           uint64            `json:"digest"`
	ComponentDigests []snapshot.Digest `json:"-"`
	Frames           int               `json:"-"`
	Verified         bool              `json:"verified"`
}

func (r *Recording) recording() *Recording { return r }

// DigestRecorder samples every component's state digest into a
// snapshot.Timeline at a fixed virtual period. It is the one recording
// path of every replay-verified harness: scale-out, chaos, the
// evaluation matrix and the crucible.
type DigestRecorder struct {
	reg      *snapshot.Registry
	timeline snapshot.Timeline
	// AfterFrame, when set, runs inside every recorder tick right after
	// the frame is appended, so a capture taken there adds no event of
	// its own.
	AfterFrame func()
}

// RecordDigests builds the testbed's registry and, when every > 0, starts
// the recorder's single ticker (every <= 0 records no frames; Stop still
// digests the final state). Tickers due at one virtual time fire in
// registration order, so call it where the frame tick belongs relative
// to the harness's other tickers. In sharded mode the ticker is a
// coordinator hook: every shard is quiesced, so a frame reads one
// consistent global state. Call after the testbed is fully composed.
func (tb *Testbed) RecordDigests(every sim.Time) *DigestRecorder {
	r := &DigestRecorder{reg: tb.Registry()}
	if every > 0 {
		tb.Every(every, func() {
			r.timeline.Append(snapshot.Frame{
				At:      int64(tb.Now()),
				Events:  tb.Processed(),
				Digests: r.reg.Digests(),
			})
			if r.AfterFrame != nil {
				r.AfterFrame()
			}
		})
	}
	return r
}

// Registry returns the registry the recorder digests.
func (r *DigestRecorder) Registry() *snapshot.Registry { return r.reg }

// Timeline returns the frames recorded so far.
func (r *DigestRecorder) Timeline() *snapshot.Timeline { return &r.timeline }

// Stop ends the recording: it returns the timeline and the Recording of
// the final state. Call it after the run's last step; a later step would
// record frames the Recording does not count.
func (r *DigestRecorder) Stop() (*snapshot.Timeline, Recording) {
	d := r.reg.Digests()
	return &r.timeline, Recording{
		Digest:           snapshot.Combined(d),
		ComponentDigests: d,
		Frames:           r.timeline.Len(),
	}
}

// RunTwice executes a recorded run twice and checks with
// snapshot.VerifyReplay that the second execution reproduced the first's
// digest timeline and final digest. run returns one execution's result,
// whose embedded Recording holds its final digest, and its timeline.
// RunTwice returns the first result with Verified set; the first run's
// error is returned as is.
func RunTwice[R any, P interface {
	*R
	recording() *Recording
}](run func() (R, *snapshot.Timeline, error)) (R, error) {
	res, tl, err := run()
	if err != nil {
		return res, err
	}
	res2, tl2, err := run()
	if err != nil {
		return res, fmt.Errorf("replay: %w", err)
	}
	rec := P(&res).recording()
	if err := snapshot.VerifyReplay(tl, rec.Digest, tl2, P(&res2).recording().Digest); err != nil {
		return res, err
	}
	rec.Verified = true
	return res, nil
}
