package fabric

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
)

// The shard journal is an append-only checkpoint of completed shards: a
// 4-byte magic followed by length-prefixed records. Each record carries
// the shard's canonical key, its plan index, its trailer tallies and its
// trimmed result payload, sealed with a truncated SHA-256 of the payload.
// The framing is deliberately in the repo's hand-rolled bit-exact codec
// style: a coordinator must be able to trust a checkpoint written by any
// build on any node.
//
// Crash tolerance is asymmetric by design: a torn final record — the
// coordinator died mid-append — is silently dropped (that shard simply
// recomputes), while any corruption inside the framed region (bad digest,
// inconsistent lengths) is an error: a checkpoint that lies must not be
// resumed from.
//
// Record layout after the u32 little-endian frame length (which covers
// everything below):
//
//	u16 keyLen | key | u32 index | u32 ok | u32 failed |
//	u32 bodyLen | body | 8-byte truncated SHA-256(body)
const (
	journalMagic   = "IFJ1"
	journalMaxKey  = 128
	journalDigest  = 8
	journalMinRec  = 2 + 4 + 4 + 4 + 4 + journalDigest // empty key, empty body
	journalMaxBody = 1 << 30
)

// ShardRecord is one journaled shard completion.
type ShardRecord struct {
	// Key is the shard's canonical spec hash (shard key).
	Key string
	// Index is the shard's position in its plan.
	Index int
	// OK and Failed are the shard stream's trailer tallies.
	OK     int
	Failed int
	// Body is the shard's trimmed payload with the per-shard header and
	// trailer frames removed: raw binary result frames only. A journal
	// written before the binary codec holds NDJSON result lines here;
	// resuming from it fails with campaign.ErrBinaryCorrupt, so start a
	// fresh -journal.
	Body []byte
}

// bodyDigest seals a record's payload.
func bodyDigest(body []byte) [journalDigest]byte {
	sum := sha256.Sum256(body)
	var d [journalDigest]byte
	copy(d[:], sum[:journalDigest])
	return d
}

// AppendShardRecord encodes rec onto buf and returns the extended slice.
func AppendShardRecord(buf []byte, rec ShardRecord) ([]byte, error) {
	if len(rec.Key) > journalMaxKey {
		return nil, fmt.Errorf("fabric: journal key %d bytes exceeds %d", len(rec.Key), journalMaxKey)
	}
	if rec.Index < 0 || rec.OK < 0 || rec.Failed < 0 {
		return nil, fmt.Errorf("fabric: journal record with negative fields (index %d, ok %d, failed %d)",
			rec.Index, rec.OK, rec.Failed)
	}
	if len(rec.Body) > journalMaxBody {
		return nil, fmt.Errorf("fabric: journal body %d bytes exceeds %d", len(rec.Body), journalMaxBody)
	}
	frame := 2 + len(rec.Key) + 4 + 4 + 4 + 4 + len(rec.Body) + journalDigest
	buf = binary.LittleEndian.AppendUint32(buf, uint32(frame))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(rec.Key)))
	buf = append(buf, rec.Key...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Index))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.OK))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(rec.Failed))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(rec.Body)))
	buf = append(buf, rec.Body...)
	d := bodyDigest(rec.Body)
	return append(buf, d[:]...), nil
}

// ErrJournalCorrupt marks a checkpoint whose framed region is
// inconsistent — as opposed to merely torn at the tail, which decodes
// cleanly to the intact prefix.
var ErrJournalCorrupt = errors.New("fabric: shard journal corrupt")

// DecodeShardJournal parses a shard journal. A truncated final record is
// tolerated (the records before it are returned with a nil error); a
// record that is framed as complete but internally inconsistent — lengths
// that disagree or a payload failing its digest — returns the intact
// prefix together with an error wrapping ErrJournalCorrupt. An empty
// input decodes to no records (a journal that was created but never
// written).
func DecodeShardJournal(data []byte) ([]ShardRecord, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if len(data) < len(journalMagic) || string(data[:len(journalMagic)]) != journalMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrJournalCorrupt)
	}
	rest := data[len(journalMagic):]
	var recs []ShardRecord
	for len(rest) > 0 {
		if len(rest) < 4 {
			return recs, nil // torn frame length
		}
		frame := int(binary.LittleEndian.Uint32(rest[:4]))
		rest = rest[4:]
		if frame > len(rest) {
			return recs, nil // torn record body
		}
		if frame < journalMinRec {
			return recs, fmt.Errorf("%w: record %d framed at %d bytes, below the %d-byte minimum",
				ErrJournalCorrupt, len(recs), frame, journalMinRec)
		}
		rec, err := decodeRecord(rest[:frame])
		if err != nil {
			return recs, err
		}
		recs = append(recs, rec)
		rest = rest[frame:]
	}
	return recs, nil
}

// decodeRecord parses one complete frame.
func decodeRecord(b []byte) (ShardRecord, error) {
	keyLen := int(binary.LittleEndian.Uint16(b[:2]))
	if keyLen > journalMaxKey {
		return ShardRecord{}, fmt.Errorf("%w: key length %d exceeds %d", ErrJournalCorrupt, keyLen, journalMaxKey)
	}
	if len(b) < journalMinRec+keyLen {
		return ShardRecord{}, fmt.Errorf("%w: frame too short for its %d-byte key", ErrJournalCorrupt, keyLen)
	}
	b = b[2:]
	key := string(b[:keyLen])
	b = b[keyLen:]
	index := int(binary.LittleEndian.Uint32(b[:4]))
	ok := int(binary.LittleEndian.Uint32(b[4:8]))
	failed := int(binary.LittleEndian.Uint32(b[8:12]))
	bodyLen := int(binary.LittleEndian.Uint32(b[12:16]))
	b = b[16:]
	if len(b) != bodyLen+journalDigest {
		return ShardRecord{}, fmt.Errorf("%w: frame holds %d payload bytes, header promises %d",
			ErrJournalCorrupt, len(b)-journalDigest, bodyLen)
	}
	body := append([]byte(nil), b[:bodyLen]...)
	d := bodyDigest(body)
	if string(b[bodyLen:]) != string(d[:]) {
		return ShardRecord{}, fmt.Errorf("%w: payload digest mismatch for shard %q", ErrJournalCorrupt, key)
	}
	return ShardRecord{Key: key, Index: index, OK: ok, Failed: failed, Body: body}, nil
}

// Journal is an append-only on-disk shard checkpoint. One coordinator
// owns a journal at a time; Append syncs each record so a completed
// shard survives the coordinator's own crash.
type Journal struct {
	f *os.File
}

// OpenJournal opens (or creates) the checkpoint at path and replays the
// records already in it. A torn tail from a crashed append is discarded
// by truncating the file back to its intact prefix; a corrupt journal is
// an error — resuming from a checkpoint that lies would silently produce
// a wrong merged stream.
func OpenJournal(path string) (*Journal, []ShardRecord, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("fabric: opening journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fabric: reading journal: %w", err)
	}
	recs, err := DecodeShardJournal(data)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	intact := int64(len(journalMagic))
	if len(data) == 0 {
		// Fresh journal: stamp the magic so even an empty checkpoint is
		// self-identifying.
		if _, err := f.Write([]byte(journalMagic)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("fabric: stamping journal: %w", err)
		}
	} else {
		for _, r := range recs {
			intact += 4 + int64(2+len(r.Key)+4+4+4+4+len(r.Body)+journalDigest)
		}
		if intact < int64(len(data)) {
			// Drop the torn tail so the next append starts on a frame
			// boundary.
			if err := f.Truncate(intact); err != nil {
				f.Close()
				return nil, nil, fmt.Errorf("fabric: truncating torn journal tail: %w", err)
			}
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("fabric: seeking journal: %w", err)
	}
	return &Journal{f: f}, recs, nil
}

// Append checkpoints one completed shard, syncing it to disk before
// returning: once Append returns, a restarted coordinator will not
// recompute this shard.
func (j *Journal) Append(rec ShardRecord) error {
	buf, err := AppendShardRecord(nil, rec)
	if err != nil {
		return err
	}
	if _, err := j.f.Write(buf); err != nil {
		return fmt.Errorf("fabric: appending to journal: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("fabric: syncing journal: %w", err)
	}
	return nil
}

// Close releases the journal file.
func (j *Journal) Close() error { return j.f.Close() }
