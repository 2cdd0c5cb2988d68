package heap

import "testing"

func TestSpaceSetBasics(t *testing.T) {
	var ss SpaceSet
	if ss.Len() != 0 || ss.Has(0) {
		t.Fatal("zero value is not an empty set")
	}

	ss.Add(3)
	ss.Add(64) // second backing word
	ss.Add(200)
	if ss.Len() != 3 {
		t.Fatalf("Len = %d after 3 adds, want 3", ss.Len())
	}
	for _, id := range []SpaceID{3, 64, 200} {
		if !ss.Has(id) {
			t.Errorf("Has(%d) = false after Add", id)
		}
	}
	for _, id := range []SpaceID{0, 2, 4, 63, 65, 199, 201} {
		if ss.Has(id) {
			t.Errorf("Has(%d) = true, never added", id)
		}
	}
	// IDs beyond the backing array are absent, not a panic: a set built at
	// collection start must reject pointers into spaces created
	// mid-collection.
	if ss.Has(60000) {
		t.Error("Has far beyond the backing array = true")
	}

	ss.Remove(64)
	if ss.Has(64) || ss.Len() != 2 {
		t.Errorf("Remove(64) left Has=%v Len=%d", ss.Has(64), ss.Len())
	}
	ss.Remove(60000) // beyond the array: a no-op, not a grow or panic
	if ss.Len() != 2 {
		t.Error("Remove beyond the array changed the set")
	}

	ss.Clear()
	if ss.Len() != 0 || ss.Has(3) || ss.Has(200) {
		t.Error("Clear left members behind")
	}
}

func TestSpaceSetHasPtr(t *testing.T) {
	var ss SpaceSet
	ss.Add(5)
	if !ss.HasPtr(PtrWord(5, 123)) {
		t.Error("HasPtr missed a pointer into a member space")
	}
	if ss.HasPtr(PtrWord(6, 123)) {
		t.Error("HasPtr accepted a pointer into a non-member space")
	}
}

// TestSpaceSetClearRetainsCapacity pins the zero-alloc re-arm contract:
// Clear must keep the grown backing array so SetFrom/SetRegion cycles
// allocate nothing in steady state.
func TestSpaceSetClearRetainsCapacity(t *testing.T) {
	var ss SpaceSet
	ss.Add(300)
	allocs := testing.AllocsPerRun(10, func() {
		ss.Clear()
		ss.Add(300)
		ss.Add(7)
	})
	if allocs != 0 {
		t.Errorf("Clear+Add re-arm allocates %.0f objects/run, want 0", allocs)
	}
}
