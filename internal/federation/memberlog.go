package federation

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"dits/internal/ingest"
)

// The membership log is a center's durable record of which sources belong
// to it: every registration a CenterServer accepts is appended here before
// it is acknowledged, so a restarted center replays the log, re-dials the
// fold of sources, and rejoins the cluster with the same shard — no
// operator re-registration, no gateway coordination. The
// on-disk format reuses the ingest WAL framing (length + CRC-32C frames
// behind a magic header), so a torn tail from a crash mid-append truncates
// to the intact prefix exactly like the data WAL.

// memberLogMagic distinguishes a membership log from the data WAL sharing
// the same frame format.
var memberLogMagic = []byte("DITSMLG\x01")

// MemberOp is the kind of one membership event.
type MemberOp uint8

const (
	// MemberJoin records a source registration (or re-registration: the
	// newest join for a name wins the fold). It is the only op; 2, a
	// source unregistration, is retired.
	MemberJoin MemberOp = 1
)

// MemberEvent is one durable membership change.
type MemberEvent struct {
	Op       MemberOp
	Name     string   // source name (the federation-wide identity)
	Addr     string   // dial address of the source's primary
	Replicas []string // dial addresses of its replicas, failover order
}

// MemberLog persists membership events for one center. It is not safe for
// concurrent use; CenterServer serializes appends under its own lock.
type MemberLog struct {
	log *ingest.FramedLog
}

// OpenMemberLog opens (or creates) the log at path and returns the events
// recovered from it, oldest first. A torn final frame is truncated away;
// fsync controls whether each append reaches disk before returning.
func OpenMemberLog(path string, fsync bool) (*MemberLog, []MemberEvent, error) {
	log, payloads, err := ingest.OpenFramedLog(path, memberLogMagic, fsync)
	if err != nil {
		return nil, nil, fmt.Errorf("federation: open member log: %w", err)
	}
	events := make([]MemberEvent, 0, len(payloads))
	for _, p := range payloads {
		var ev MemberEvent
		if derr := gob.NewDecoder(bytes.NewReader(p)).Decode(&ev); derr != nil {
			// An intact (CRC-clean) frame that does not decode is not a torn
			// tail — the log is from a different format version. Refuse
			// rather than silently drop membership.
			log.Close()
			return nil, nil, fmt.Errorf("federation: member log %s: undecodable event %d: %w", path, len(events), derr)
		}
		if ev.Op != MemberJoin {
			// A retired op (a leave) cannot be folded faithfully: refuse
			// rather than bring the source back.
			log.Close()
			return nil, nil, fmt.Errorf("federation: member log %s: event %d has unknown op %d", path, len(events), ev.Op)
		}
		events = append(events, ev)
	}
	return &MemberLog{log: log}, events, nil
}

// Append durably records one membership event.
func (l *MemberLog) Append(ev MemberEvent) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ev); err != nil {
		return fmt.Errorf("federation: encode member event: %w", err)
	}
	if err := l.log.Append(buf.Bytes()); err != nil {
		return fmt.Errorf("federation: append member event: %w", err)
	}
	return nil
}

// Size returns the log's current length in bytes.
func (l *MemberLog) Size() int64 { return l.log.Size() }

// Close releases the underlying file.
func (l *MemberLog) Close() error { return l.log.Close() }

// FoldMembers collapses an event history into the live membership: the
// newest join per name wins. Iteration order of the returned map is not
// defined; callers wanting determinism sort the names.
func FoldMembers(events []MemberEvent) map[string]MemberEvent {
	live := make(map[string]MemberEvent)
	for _, ev := range events {
		live[ev.Name] = ev
	}
	return live
}
