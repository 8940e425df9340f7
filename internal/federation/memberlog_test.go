package federation

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestMemberLogReplayAndFold(t *testing.T) {
	path := filepath.Join(t.TempDir(), "members.log")
	l, events, err := OpenMemberLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 0 {
		t.Fatalf("fresh log replayed %d events", len(events))
	}
	history := []MemberEvent{
		{Op: MemberJoin, Name: "alpha", Addr: "a:1"},
		{Op: MemberJoin, Name: "bravo", Addr: "b:1", Replicas: []string{"b:2", "b:3"}},
		{Op: MemberJoin, Name: "charlie", Addr: "c:1"},
		// Re-registration at a new address: the newest join wins the fold.
		{Op: MemberJoin, Name: "alpha", Addr: "a:9", Replicas: []string{"a:10"}},
	}
	for _, ev := range history {
		if err := l.Append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, replayed, err := OpenMemberLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if !reflect.DeepEqual(replayed, history) {
		t.Fatalf("replayed %+v,\nwant %+v", replayed, history)
	}
	live := FoldMembers(replayed)
	want := map[string]MemberEvent{
		"alpha":   history[3],
		"bravo":   history[1],
		"charlie": history[2],
	}
	if !reflect.DeepEqual(live, want) {
		t.Fatalf("fold = %+v, want %+v", live, want)
	}

	// A leave (op 2, retired) cannot be folded: the log is refused rather
	// than replayed with the source brought back.
	if err := l2.Append(MemberEvent{Op: 2, Name: "charlie"}); err != nil {
		t.Fatal(err)
	}
	if l3, _, err := OpenMemberLog(path, false); err == nil {
		l3.Close()
		t.Fatal("a log holding a leave opened")
	}
}

func TestMemberLogTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "members.log")
	l, _, err := OpenMemberLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "bravo", "charlie"} {
		if err := l.Append(MemberEvent{Op: MemberJoin, Name: name, Addr: name + ":1"}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	// Crash mid-append: the final frame is torn. Recovery keeps the intact
	// prefix and appends resume after it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, replayed, err := OpenMemberLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 2 || replayed[1].Name != "bravo" {
		t.Fatalf("torn-tail replay = %+v", replayed)
	}
	if err := l2.Append(MemberEvent{Op: MemberJoin, Name: "delta", Addr: "d:1"}); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	_, again, err := OpenMemberLog(path, false)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, ev := range again {
		names = append(names, ev.Name)
	}
	if !reflect.DeepEqual(names, []string{"alpha", "bravo", "delta"}) {
		t.Fatalf("post-tear history = %v", names)
	}
}
