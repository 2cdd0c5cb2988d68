// Package lifetime implements the measurement instrumentation behind the
// paper's Section 7: per-object birth stamps (via heap.WithCensus), periodic
// whole-heap censuses, live-storage-versus-time profiles striped by age
// (Figures 2–4), and survival-rate-by-age tables (Tables 4–7).
//
// A census is a non-moving trace: it marks everything reachable, buckets
// the live words by the allocation epoch in which each object was born,
// and clears the marks. It is collector-independent and can run under any
// of the repository's collectors.
package lifetime

import (
	"fmt"
	"io"
	"strings"

	"rdgc/internal/heap"
)

// Snapshot records one census: the allocation clock when it was taken and
// the live words bucketed by birth epoch (index = birth time / epoch size).
type Snapshot struct {
	At               uint64
	LiveByBirthEpoch []uint64
}

// TotalLive returns the live words in the snapshot.
func (s Snapshot) TotalLive() uint64 {
	var n uint64
	for _, w := range s.LiveByBirthEpoch {
		n += w
	}
	return n
}

// TakeCensus traces the heap from its roots and buckets live words by birth
// epoch. The heap must have been created with heap.WithCensus.
func TakeCensus(h *heap.Heap, epochWords uint64) Snapshot {
	if !h.CensusEnabled() {
		panic("lifetime: heap was not created with heap.WithCensus")
	}
	m := heap.NewMarker(h, nil)
	m.Run()

	snap := Snapshot{At: h.Now()}
	for _, s := range h.Spaces {
		heap.WalkSpace(s, func(off int, hdr heap.Word) bool {
			if !s.MarkedAt(off) {
				return true
			}
			birth := h.BirthStamp(heap.PtrWord(s.ID, off))
			e := int(birth / epochWords)
			for len(snap.LiveByBirthEpoch) <= e {
				snap.LiveByBirthEpoch = append(snap.LiveByBirthEpoch, 0)
			}
			snap.LiveByBirthEpoch[e] += uint64(heap.ObjWords(hdr))
			return true
		})
		heap.ClearMarks(s)
	}
	return snap
}

// Tracker samples censuses at every epoch boundary of the allocation clock,
// via the heap's allocation hook.
type Tracker struct {
	H          *heap.Heap
	EpochWords uint64
	snaps      []Snapshot
}

// NewTracker installs a tracker on h sampling every epochWords of
// allocation. Install before the measured program starts allocating.
func NewTracker(h *heap.Heap, epochWords uint64) *Tracker {
	t := &Tracker{H: h, EpochWords: epochWords}
	var fire func()
	fire = func() {
		t.snaps = append(t.snaps, TakeCensus(h, epochWords))
		h.SetAllocHook((h.Now()/epochWords+1)*epochWords, fire)
	}
	h.SetAllocHook(epochWords, fire)
	return t
}

// Finish takes a final census (so short runs have at least one sample) and
// returns all snapshots.
func (t *Tracker) Finish() []Snapshot {
	t.snaps = append(t.snaps, TakeCensus(t.H, t.EpochWords))
	t.H.SetAllocHook(^uint64(0), nil)
	return t.snaps
}

// Snapshots returns the censuses taken so far.
func (t *Tracker) Snapshots() []Snapshot { return t.snaps }

// SurvivalRow is one line of a Table 4–7 style survival table: of the live
// words whose age was in [AgeLo, AgeHi) epochs, the fraction still live one
// epoch later.
type SurvivalRow struct {
	AgeLo, AgeHi int // in epochs; AgeHi < 0 means "or older"
	Live         uint64
	Survived     uint64
}

// Rate returns the survival fraction, or NaN-free 0 when no words were
// observed.
func (r SurvivalRow) Rate() float64 {
	if r.Live == 0 {
		return 0
	}
	return float64(r.Survived) / float64(r.Live)
}

func (r SurvivalRow) String() string {
	hi := fmt.Sprintf("%d", r.AgeHi)
	if r.AgeHi < 0 {
		hi = "∞"
	}
	return fmt.Sprintf("age [%d,%s) epochs: %3.0f%% survives the next epoch (%d of %d words)",
		r.AgeLo, hi, 100*r.Rate(), r.Survived, r.Live)
}

// SurvivalTable aggregates, over consecutive snapshot pairs, the words of
// each age class that survive one more epoch — the computation behind
// Tables 4, 5, 6 and 7. Age class k covers objects allocated k+1 epochs
// before the observation ("100,000 to 200,000 bytes old" is k = 1 with
// 100,000-byte epochs). Classes 0..maxAge-1 get their own rows; everything
// older lands in a final "or older" row.
func SurvivalTable(snaps []Snapshot, epochWords uint64, maxAge int) []SurvivalRow {
	rows := make([]SurvivalRow, maxAge+1)
	for k := range rows {
		rows[k].AgeLo, rows[k].AgeHi = k, k+1
	}
	rows[maxAge].AgeLo, rows[maxAge].AgeHi = maxAge, -1

	for i := 0; i+1 < len(snaps); i++ {
		cur, next := snaps[i], snaps[i+1]
		m := int(cur.At / epochWords) // current epoch index
		for b, live := range cur.LiveByBirthEpoch {
			if live == 0 {
				continue
			}
			age := m - b - 1
			if age < 0 {
				continue // the current epoch is incomplete; its cohort is
				// still being born, so survival is not yet defined
			}
			k := age
			if k > maxAge {
				k = maxAge
			}
			var surv uint64
			if b < len(next.LiveByBirthEpoch) {
				surv = next.LiveByBirthEpoch[b]
			}
			if surv > live {
				surv = live
			}
			rows[k].Live += live
			rows[k].Survived += surv
		}
	}
	return rows
}

// Profile is the data behind Figures 2–4: for each census, the live words
// split by age class (0 = allocated in the previous epoch), with ages of
// maxAge epochs or more merged (the paper's "white" stripe).
type Profile struct {
	EpochWords uint64
	MaxAge     int
	Rows       []ProfileRow
}

// ProfileRow is one census column of the figure.
type ProfileRow struct {
	At        uint64
	ByAge     []uint64 // index = age class, length MaxAge+1 (last = older)
	TotalLive uint64
}

// BuildProfile converts snapshots into an age-striped live-storage profile.
func BuildProfile(snaps []Snapshot, epochWords uint64, maxAge int) Profile {
	p := Profile{EpochWords: epochWords, MaxAge: maxAge}
	for _, s := range snaps {
		row := ProfileRow{At: s.At, ByAge: make([]uint64, maxAge+1)}
		m := int(s.At / epochWords)
		for b, live := range s.LiveByBirthEpoch {
			age := m - b - 1
			if age < 0 {
				age = 0
			}
			if age > maxAge {
				age = maxAge
			}
			row.ByAge[age] += live
			row.TotalLive += live
		}
		p.Rows = append(p.Rows, row)
	}
	return p
}

// WriteCSV emits the profile as CSV: time, total, then one column per age
// class. The columns regenerate the colored stripes of Figures 2–4.
func (p Profile) WriteCSV(w io.Writer) error {
	header := []string{"words_allocated", "live_total"}
	for k := 0; k < p.MaxAge; k++ {
		header = append(header, fmt.Sprintf("age_%d_epochs", k))
	}
	header = append(header, "older")
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, r := range p.Rows {
		cols := []string{fmt.Sprint(r.At), fmt.Sprint(r.TotalLive)}
		for _, v := range r.ByAge {
			cols = append(cols, fmt.Sprint(v))
		}
		if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
			return err
		}
	}
	return nil
}

// RenderASCII draws the profile as a crude skyline (one output row per
// census, width proportional to live storage), with the oldest age class
// shown as '.' and everything younger as '#' — enough to eyeball the
// sawtooths of Figure 2 and the staircase of Figure 3 in a terminal.
func (p Profile) RenderASCII(w io.Writer, width int) error {
	var peak uint64 = 1
	for _, r := range p.Rows {
		if r.TotalLive > peak {
			peak = r.TotalLive
		}
	}
	for _, r := range p.Rows {
		old := r.ByAge[p.MaxAge]
		oldCols := int(old * uint64(width) / peak)
		totCols := int(r.TotalLive * uint64(width) / peak)
		line := strings.Repeat(".", oldCols) + strings.Repeat("#", totCols-oldCols)
		if _, err := fmt.Fprintf(w, "%12d |%s\n", r.At, line); err != nil {
			return err
		}
	}
	return nil
}
