package serve

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"nomad/internal/factor"
	"nomad/internal/train"
)

// LoadEpoch reads a servable epoch from path: either a bare factor
// model (Model.Save / factor.WriteBinary, magic "NMDM") or a full
// training checkpoint (Session.Checkpoint / train.State, magic
// "NMCK"), whose embedded model is extracted. owned restricts the
// candidate index to an item shard (nil = all items). A truncated,
// corrupt or unrecognized file is an error — the caller never serves
// from it.
func LoadEpoch(path string, seq uint64, owned []int32) (*Epoch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	defer f.Close()
	md, err := readModel(f)
	if err != nil {
		return nil, fmt.Errorf("serve: load %s: %w", path, err)
	}
	return &Epoch{Seq: seq, Path: path, Model: md, Index: BuildIndex(md, owned)}, nil
}

// readModel sniffs the container magic and decodes either format. Both
// decoders fail on a payload that ends short; readModel also rejects
// bytes after the payload, in either format, rather than serve a file
// that is not what was written.
func readModel(r io.Reader) (*factor.Model, error) {
	br := bufio.NewReaderSize(r, 1<<20) // the decoders' own size: they read br itself
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("unreadable header: %w", err)
	}
	var md *factor.Model
	switch magic := binary.LittleEndian.Uint32(head); magic {
	case 0x4e4d444d: // "NMDM": bare factor model
		if md, err = factor.ReadBinary(br); err != nil {
			return nil, err
		}
	case 0x4e4d434b: // "NMCK": train.State checkpoint
		st, err := train.ReadState(br)
		if err != nil {
			return nil, err
		}
		if md = st.Model; md == nil {
			return nil, fmt.Errorf("checkpoint has no model")
		}
	default:
		return nil, fmt.Errorf("not a model or checkpoint (magic %#x)", magic)
	}
	if _, err := br.Peek(1); err != io.EOF {
		return nil, fmt.Errorf("trailing bytes after the payload")
	}
	return md, nil
}

// fileSig identifies a file version: a failed load is not retried
// until the file's size or mtime changes.
type fileSig struct {
	size  int64
	mtime int64
}

// Watcher polls a directory for epoch-numbered checkpoint files and
// promotes each new valid epoch into its Store. One watcher serves one
// store (one shard); several watchers may poll the same directory.
type Watcher struct {
	store    *Store
	dir      string
	owned    []int32
	interval time.Duration
	validate func(md *factor.Model) error

	mu     sync.Mutex
	failed map[string]fileSig // rejected file versions, not retried

	rejects    atomic.Int64
	lastReject atomic.Pointer[string]
}

// NewWatcher builds a watcher; call Run (or ScanOnce) to poll.
// validate, when non-nil, vets the first model (later models are
// validated against the serving epoch's shape).
func NewWatcher(store *Store, dir string, owned []int32, interval time.Duration, validate func(md *factor.Model) error) *Watcher {
	return &Watcher{
		store:    store,
		dir:      dir,
		owned:    owned,
		interval: interval,
		validate: validate,
		failed:   make(map[string]fileSig),
	}
}

// Rejects returns how many candidate files were rejected, and the
// most recent rejection reason.
func (w *Watcher) Rejects() (int64, string) {
	n := w.rejects.Load()
	if p := w.lastReject.Load(); p != nil {
		return n, *p
	}
	return n, ""
}

func (w *Watcher) reject(path string, sig fileSig, err error) {
	w.mu.Lock()
	w.failed[path] = sig
	w.mu.Unlock()
	w.rejects.Add(1)
	msg := fmt.Sprintf("%s: %v", filepath.Base(path), err)
	w.lastReject.Store(&msg)
}

// epochSeq parses the epoch number from a filename: the last run of
// digits before the extension ("model-12.bin" → 12).
func epochSeq(name string) (uint64, bool) {
	base := strings.TrimSuffix(name, filepath.Ext(name))
	end := len(base)
	for end > 0 && !isDigit(base[end-1]) {
		end--
	}
	start := end
	for start > 0 && isDigit(base[start-1]) {
		start--
	}
	if start == end {
		return 0, false
	}
	var seq uint64
	for _, c := range base[start:end] {
		d := uint64(c - '0')
		if seq > (1<<63)/10 {
			return 0, false
		}
		seq = seq*10 + d
	}
	return seq, true
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// candidate is one promotable file found in the watch directory.
type candidate struct {
	path string
	seq  uint64
	sig  fileSig
}

// ScanOnce polls the directory once, promoting the highest-epoch
// valid file above the current epoch. It returns whether a promotion
// happened; the error is reserved for an unreadable directory —
// individual bad files are rejected and remembered, not fatal.
func (w *Watcher) ScanOnce() (bool, error) {
	entries, err := os.ReadDir(w.dir)
	if err != nil {
		return false, fmt.Errorf("serve: watch %s: %w", w.dir, err)
	}
	cur := w.store.Seq()
	var cands []candidate
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || strings.HasPrefix(name, ".") {
			continue
		}
		switch ext := filepath.Ext(name); ext {
		case ".bin", ".ckpt", ".model":
		default:
			continue // in-progress writes (.tmp, .part) and foreign files
		}
		seq, ok := epochSeq(name)
		if !ok || seq <= cur {
			continue
		}
		info, err := ent.Info()
		if err != nil {
			continue // raced a delete; next scan sees the truth
		}
		cands = append(cands, candidate{
			path: filepath.Join(w.dir, name),
			seq:  seq,
			sig:  fileSig{size: info.Size(), mtime: info.ModTime().UnixNano()},
		})
	}
	// Highest epoch first; on a tie (same seq, different extension) the
	// lexicographically first path wins deterministically.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].seq != cands[b].seq {
			return cands[a].seq > cands[b].seq
		}
		return cands[a].path < cands[b].path
	})
	for _, c := range cands {
		w.mu.Lock()
		failedSig, failedBefore := w.failed[c.path]
		w.mu.Unlock()
		if failedBefore && failedSig == c.sig {
			continue // same bad file version; wait for it to change
		}
		ep, err := LoadEpoch(c.path, c.seq, w.owned)
		if err != nil {
			w.reject(c.path, c.sig, err)
			continue
		}
		if err := w.vet(ep.Model); err != nil {
			w.reject(c.path, c.sig, err)
			continue
		}
		w.store.Promote(ep)
		return true, nil
	}
	return false, nil
}

// vet validates a loaded model against the current serving epoch (or
// the configured validator for the first one). Shape and precision
// must match: the serving fleet's user ids, item shard map and scan
// kernels are all derived from them, and PR 6's precision contract
// makes every cross-precision conversion explicit — a float32 file
// appearing in a float64 serving directory is a deployment mistake,
// not a swap.
func (w *Watcher) vet(md *factor.Model) error {
	cur := w.store.Acquire()
	if cur == nil {
		if w.validate != nil {
			return w.validate(md)
		}
		return nil
	}
	defer cur.Release()
	old := cur.Model
	if md.M != old.M || md.N != old.N || md.K != old.K {
		return fmt.Errorf("shape %d×%d rank %d does not match serving epoch's %d×%d rank %d",
			md.M, md.N, md.K, old.M, old.N, old.K)
	}
	if md.Precision() != old.Precision() {
		return fmt.Errorf("precision %v does not match serving epoch's %v", md.Precision(), old.Precision())
	}
	return nil
}

// Run polls until ctx is cancelled. Promotion failures are recorded
// in Rejects; directory read errors are tolerated (the directory may
// appear after the server boots).
func (w *Watcher) Run(ctx context.Context) {
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			w.ScanOnce() //nolint:errcheck // unreadable dir: retried next tick
		}
	}
}
