package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/teacher"
)

// statsFingerprint renders every counter of a session's stats for exact
// comparison across protocol variants.
func statsFingerprint(s *core.Stats) string { return fmt.Sprintf("%+v", *s) }

// TestBatchedMatchesSerial is the batched-protocol correctness
// property: for every benchmark scenario, the batched + mirrored
// protocol must produce the same learned query, the same verification
// outcome, and byte-identical interaction counters as the serial
// protocol — only the transport (who answers: mirror or wire) may
// differ, which is exactly what Stats.Speculation isolates.
func TestBatchedMatchesSerial(t *testing.T) {
	scns := append(append([]*scenario.Scenario{}, XMarkScenarios()...), XMPScenarios()...)
	for _, s := range scns {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			serial, err := scenario.Run(context.Background(), s, teacher.BestCase)
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			p := scenario.Prepare(s, teacher.BestCase, core.WithBatchedProtocol(true))
			p.SetTeacherLatency(200 * time.Microsecond)
			batched, err := p.Learn(context.Background())
			if err != nil {
				t.Fatalf("batched run: %v", err)
			}
			if got, want := batched.Tree.String(), serial.Tree.String(); got != want {
				t.Errorf("learned tree diverged\nbatched:\n%s\nserial:\n%s", got, want)
			}
			if batched.Verified != serial.Verified {
				t.Errorf("Verified = %v, serial %v", batched.Verified, serial.Verified)
			}
			bs, ss := *batched.Stats, *serial.Stats
			if bs.Speculation.Prefetches == 0 {
				t.Errorf("batched run dispatched no prefetches")
			}
			if bs.Speculation.MirrorAnswers == 0 {
				t.Errorf("batched run answered no questions from the mirror")
			}
			// The dialogue counters must match exactly once the transport
			// bookkeeping is masked out.
			bs.Speculation = core.SpeculationStats{}
			ss.Speculation = core.SpeculationStats{}
			if got, want := statsFingerprint(&bs), statsFingerprint(&ss); got != want {
				t.Errorf("dialogue counters diverged\nbatched: %s\nserial:  %s", got, want)
			}
		})
	}
}

// TestBatchedMatchesSerialKV runs the same property under the
// Kearns-Vazirani learner, whose adaptive sift chain asks every probe
// on its own instead of in L*'s multi-query waves.
func TestBatchedMatchesSerialKV(t *testing.T) {
	for _, s := range XMPScenarios() {
		s := s
		t.Run(s.ID, func(t *testing.T) {
			t.Parallel()
			serial, err := scenario.Run(context.Background(), s, teacher.BestCase, core.WithKVLearner(true))
			if err != nil {
				t.Fatalf("serial run: %v", err)
			}
			batched, err := scenario.Run(context.Background(), s, teacher.BestCase,
				core.WithKVLearner(true), core.WithBatchedProtocol(true))
			if err != nil {
				t.Fatalf("batched run: %v", err)
			}
			if got, want := batched.Tree.String(), serial.Tree.String(); got != want {
				t.Errorf("learned tree diverged\nbatched:\n%s\nserial:\n%s", got, want)
			}
			bs, ss := *batched.Stats, *serial.Stats
			bs.Speculation = core.SpeculationStats{}
			ss.Speculation = core.SpeculationStats{}
			if got, want := statsFingerprint(&bs), statsFingerprint(&ss); got != want {
				t.Errorf("dialogue counters diverged\nbatched: %s\nserial:  %s", got, want)
			}
		})
	}
}
