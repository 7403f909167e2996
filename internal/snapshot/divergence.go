package snapshot

import "fmt"

// Frame is one periodic digest sample: every component's state hash at a
// virtual instant.
type Frame struct {
	At      int64 // virtual time, nanoseconds
	Events  uint64
	Digests []Digest
}

// Timeline is an ordered sequence of frames from one run. Two runs are
// comparable only if they recorded with the same period and the same
// registry layout.
type Timeline struct {
	Frames []Frame
}

// Append adds one frame.
func (t *Timeline) Append(f Frame) { t.Frames = append(t.Frames, f) }

// Len returns the number of frames.
func (t *Timeline) Len() int { return len(t.Frames) }

// Divergence identifies the first component whose digest differs between
// two runs — the "pcie credit counter diverged at t=83ms" answer.
type Divergence struct {
	Component  string
	At         int64 // virtual time of the first divergent frame
	Events     uint64
	FrameIndex int
	AHash      uint64
	BHash      uint64
}

func (d Divergence) String() string {
	return fmt.Sprintf("component %q diverged at t=%.3fms (frame %d, %d events): %#x vs %#x",
		d.Component, float64(d.At)/1e6, d.FrameIndex, d.Events, d.AHash, d.BHash)
}

// FirstDivergence scans two timelines frame by frame and returns the
// first component whose digest differs (within the first differing frame,
// components are checked in registration order, which follows the
// datapath, so the earliest listed divergent component is the most
// upstream one). ok is false when the common prefix is identical.
func FirstDivergence(a, b *Timeline) (Divergence, bool) {
	n := min(len(a.Frames), len(b.Frames))
	for i := 0; i < n; i++ {
		fa, fb := a.Frames[i], b.Frames[i]
		m := min(len(fa.Digests), len(fb.Digests))
		for j := 0; j < m; j++ {
			da, db := fa.Digests[j], fb.Digests[j]
			if da.Component != db.Component {
				return Divergence{
					Component:  da.Component + "|" + db.Component,
					At:         fa.At,
					Events:     fa.Events,
					FrameIndex: i,
					AHash:      da.Hash,
					BHash:      db.Hash,
				}, true
			}
			if da.Hash != db.Hash {
				return Divergence{
					Component:  da.Component,
					At:         fa.At,
					Events:     fa.Events,
					FrameIndex: i,
					AHash:      da.Hash,
					BHash:      db.Hash,
				}, true
			}
		}
		if len(fa.Digests) != len(fb.Digests) {
			return Divergence{
				Component:  "(frame shape)",
				At:         fa.At,
				FrameIndex: i,
			}, true
		}
	}
	return Divergence{}, false
}

// VerifyReplay checks that a replay reproduced its recording: a and b are
// the digest timelines of two executions of one configuration, aFinal
// and bFinal the combined digests of their final states. It returns nil
// only when every frame matches, the frame counts are equal and the
// final digests are equal; otherwise the error names the first
// difference. Unlike FirstDivergence it does not accept a timeline that
// is a strict prefix of the other.
func VerifyReplay(a *Timeline, aFinal uint64, b *Timeline, bFinal uint64) error {
	if div, found := FirstDivergence(a, b); found {
		return fmt.Errorf("replay diverged: %s", div)
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("replay recorded %d digest frames, the first run %d", b.Len(), a.Len())
	}
	if aFinal != bFinal {
		return fmt.Errorf("replay final digest %#016x != %#016x", bFinal, aFinal)
	}
	return nil
}

func (t *Timeline) encode(e *Encoder) {
	e.U32(uint32(len(t.Frames)))
	for _, f := range t.Frames {
		e.I64(f.At)
		e.U64(f.Events)
		e.U32(uint32(len(f.Digests)))
		for _, d := range f.Digests {
			e.Str(d.Component)
			e.U64(d.Hash)
		}
	}
}

func decodeTimeline(d *Decoder) Timeline {
	var t Timeline
	n := int(d.U32())
	for i := 0; i < n && d.Err() == nil; i++ {
		f := Frame{At: d.I64(), Events: d.U64()}
		m := int(d.U32())
		for j := 0; j < m && d.Err() == nil; j++ {
			f.Digests = append(f.Digests, Digest{Component: d.Str(), Hash: d.U64()})
		}
		t.Frames = append(t.Frames, f)
	}
	return t
}
