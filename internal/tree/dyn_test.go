package tree

import (
	"errors"
	"testing"
)

// TestDynInsertIDSpaceFull pins the id-space bound: once a Dyn holds
// maxIDs ids, Insert and InsertBetween fail with ErrIDSpaceFull and
// change nothing, where they used to hand out an id past the space
// every restore refuses (and, at 2^31, wrap to a negative one). The
// limit is lowered on this one Dyn: reaching MaxIDs for real would
// need about 10 GB.
func TestDynInsertIDSpaceFull(t *testing.T) {
	d := NewDyn(CompleteKary(7, 2))
	d.maxIDs = 9
	for want := NodeID(7); want < 9; want++ {
		if d.Full() {
			t.Fatalf("full at %d of 9 ids", d.NumIDs())
		}
		if v, err := d.Insert(3); err != nil || v != want {
			t.Fatalf("insert %d: got (%d, %v)", want, v, err)
		}
	}
	if !d.Full() {
		t.Fatal("not full at 9 of 9 ids")
	}
	live, pending, kids := d.Len(), d.Pending(), d.LiveChildren(1)
	if v, err := d.Insert(1); !errors.Is(err, ErrIDSpaceFull) || v != None {
		t.Fatalf("Insert past the id space: got (%d, %v), want ErrIDSpaceFull", v, err)
	}
	if v, err := d.InsertBetween(1, []NodeID{3, 4}); !errors.Is(err, ErrIDSpaceFull) || v != None {
		t.Fatalf("InsertBetween past the id space: got (%d, %v), want ErrIDSpaceFull", v, err)
	}
	if d.NumIDs() != 9 || d.NextID() != 9 || d.Len() != live || d.Pending() != pending ||
		d.LiveChildren(1) != kids || d.Parent(3) != 1 || d.Parent(4) != 1 || d.Structural() {
		t.Fatalf("failed inserts changed the topology: ids %d, live %d/%d, pending %d/%d, kids(1) %d/%d, structural %v",
			d.NumIDs(), d.Len(), live, d.Pending(), pending, d.LiveChildren(1), kids, d.Structural())
	}
	// Withdrawals do not free ids: stable ids are never reused.
	if err := d.Delete(8); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(1); !errors.Is(err, ErrIDSpaceFull) {
		t.Fatalf("insert after a withdrawal: %v, want ErrIDSpaceFull", err)
	}
}
