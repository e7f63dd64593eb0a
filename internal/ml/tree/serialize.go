package tree

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
)

// Wire DTOs: gob needs exported fields, while the in-memory representations
// keep theirs private.

type nodeDTO struct {
	Feature     int
	Bin         uint8
	Left, Right int32
	Prob        float32
	Leaf        bool
}

// MarshalBinary implements encoding.BinaryMarshaler so trained trees can be
// persisted and reloaded without retraining.
func (t *Tree) MarshalBinary() ([]byte, error) {
	dto := make([]nodeDTO, len(t.nodes))
	for i, n := range t.nodes {
		dto[i] = nodeDTO{Feature: n.feature, Bin: n.bin, Left: n.left, Right: n.right, Prob: n.prob, Leaf: n.leaf}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, fmt.Errorf("tree: encode: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (t *Tree) UnmarshalBinary(data []byte) error {
	var dto []nodeDTO
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dto); err != nil {
		return fmt.Errorf("tree: decode: %w", err)
	}
	if len(dto) == 0 {
		return fmt.Errorf("tree: no nodes")
	}
	t.nodes = make([]node, len(dto))
	for i, n := range dto {
		// Children strictly after their parent (as Grow lays them out) keep
		// every root-to-leaf walk finite.
		if !n.Leaf && (int(n.Left) <= i || int(n.Left) >= len(dto) || int(n.Right) <= i || int(n.Right) >= len(dto)) {
			return fmt.Errorf("tree: corrupt node %d: children (%d, %d) must lie in (%d, %d)", i, n.Left, n.Right, i, len(dto))
		}
		if !n.Leaf && n.Feature < 0 {
			return fmt.Errorf("tree: corrupt node %d: feature %d", i, n.Feature)
		}
		if n.Leaf && !(n.Prob >= 0 && n.Prob <= 1) {
			return fmt.Errorf("tree: corrupt leaf %d: probability %v", i, n.Prob)
		}
		t.nodes[i] = node{feature: n.Feature, bin: n.Bin, left: n.Left, right: n.Right, prob: n.Prob, leaf: n.Leaf}
	}
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler for the feature binner.
func (b *Binner) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(b.edges); err != nil {
		return nil, fmt.Errorf("tree: encode binner: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (b *Binner) UnmarshalBinary(data []byte) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&b.edges); err != nil {
		return fmt.Errorf("tree: decode binner: %w", err)
	}
	// Codes are uint8 counts of edges below a value, found by binary
	// search: at most MaxBins-1 strictly ascending, non-NaN edges.
	for j, e := range b.edges {
		if len(e) > MaxBins-1 {
			return fmt.Errorf("tree: corrupt binner: feature %d has %d edges, max %d", j, len(e), MaxBins-1)
		}
		for k, v := range e {
			if math.IsNaN(v) || (k > 0 && !(v > e[k-1])) {
				return fmt.Errorf("tree: corrupt binner: feature %d edges not strictly ascending at %d", j, k)
			}
		}
	}
	return nil
}
