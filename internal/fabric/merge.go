package fabric

import (
	"fmt"
	"slices"

	"injectable/internal/campaign"
)

// splitBinaryShard validates one worker's binary stream for a shard and
// strips its frame: it CRC-validates the frame walk, strips the header
// and end frames, and checks the trailer's trial count against the
// shard (a cancelled worker yields a torn stream, which the frame walk
// rejects — a redispatch, never a silently short merge). The returned
// payload aliases stream and is raw result frames the merger
// concatenates without decoding a single record.
func splitBinaryShard(stream []byte, wantTrials int) (payload []byte, ok, failed int, err error) {
	_, payload, tallies, err := campaign.SplitBinaryStream(stream)
	if err != nil {
		return nil, 0, 0, fmt.Errorf("fabric: shard stream rejected: %w", err)
	}
	if tallies.Trials != wantTrials {
		return nil, 0, 0, fmt.Errorf("fabric: shard stream holds %d trials, want %d (worker cancelled mid-shard?)",
			tallies.Trials, wantTrials)
	}
	return payload, tallies.OK, tallies.Failed, nil
}

// checkJournaledBody checks that a checkpointed shard body is what
// splitBinaryShard journaled: a CRC-valid region of result frames, which
// SplitBinaryStream accepts between an empty header and trailer. A body
// that is not — a journal written before the binary codec holds NDJSON
// lines — fails the resume with ErrBinaryCorrupt.
func checkJournaledBody(rec ShardRecord) error {
	stream := slices.Concat(campaign.BinaryHeader("", 0, 0, 0), rec.Body, campaign.BinaryTrailer(0, 0, 0))
	if _, _, _, err := campaign.SplitBinaryStream(stream); err != nil {
		return fmt.Errorf("fabric: journaled shard %s (start a fresh journal): %w", rec.Key, err)
	}
	return nil
}
