// Cluster routing: the workstation side of the horizontally sharded
// page service.
//
// A cluster is N page servers, each owning a disjoint page space. The
// partitioning key is baked into the page ID itself: the top byte of a
// cluster-wide ID names the owning shard and the low 56 bits are the
// page's local ID there, so routing a request is a shift, not a lookup.
// Shard 0's IDs coincide with its local IDs, which keeps a one-shard
// cluster byte-identical to a standalone server — the degenerate
// configuration costs nothing and the routing-table tests pin it.
//
// Placement rides the allocator: Alloc hands out runs of allocChunk
// consecutive pages from one shard before rotating to the next, so the
// clustering subtrees the backends build from consecutive allocations
// (the 1-N parent/child placement the HyperModel workload leans on)
// land on one shard and a closure traversal's frontier mostly fans out
// to the shard it is already reading.
//
// The routing table itself — epoch plus shard addresses — is served by
// every shard via opRouteTable. Clients adopt a re-fetched table only
// when its epoch is strictly newer than the one they hold; a stale
// answer from a lagging shard is counted and ignored.
//
// Commits: a transaction whose entire footprint (reads and writes)
// stayed on one shard takes that shard's ordinary optimistic-commit
// path, group commit and all. A cross-shard transaction runs two-phase
// commit: the lowest dirty shard is the coordinator (its ID rides in
// the token's top byte), every touched shard votes via opPrepare —
// which validates the read set exactly like a commit and stages the
// write set durably — and the decision is delivered via opDecide,
// coordinator first. The coordinator's durable decide is the commit
// point: participants that miss their decide (a crash, a partition)
// are healed by their server-side resolver, which polls the
// coordinator via opCommitCheck. Prepare order is the mirror
// invariant: the coordinator is prepared before any participant, so a
// participant holding a prepare implies the coordinator durably knows
// the transaction and can answer for it.
package remote

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"hypermodel/internal/btree"
	"hypermodel/internal/storage/page"
	"hypermodel/internal/storage/store"
)

// shardShift positions the shard ID in the top byte of a cluster-wide
// page ID, and of a cross-shard commit token (where it names the
// coordinator).
const shardShift = 56

// maxShards bounds the cluster size well below the 255 values the top
// byte could carry, keeping the all-ones page.Invalid pattern (shard
// 255) unroutable by construction.
const maxShards = 128

// allocChunk is how many consecutive allocations land on one shard
// before the allocator rotates — the clustering grain.
const allocChunk = 64

// globalID composes a cluster-wide page ID from a shard and its local
// ID; shard 0's global IDs equal its local IDs.
func globalID(shard int, local page.ID) page.ID {
	return page.ID(uint64(shard)<<shardShift | uint64(local))
}

// shardOfID extracts the owning shard from a cluster-wide page ID.
func shardOfID(id page.ID) int { return int(uint64(id) >> shardShift) }

// localIDOf strips the shard byte, leaving the page's ID on its shard.
func localIDOf(id page.ID) page.ID { return page.ID(uint64(id) & (1<<shardShift - 1)) }

// ClusterPageID composes a cluster-wide page ID from a shard and one
// of its local page IDs — for tools and experiments that address a
// shard's pages directly.
func ClusterPageID(shard int, local page.ID) page.ID { return globalID(shard, local) }

// RouteTable maps the cluster: Shards[i] is the address of shard i,
// and Epoch versions the mapping — a client adopts a table only when
// its epoch is strictly newer than the one it holds.
type RouteTable struct {
	Epoch  uint64
	Shards []string
}

// ClusterOptions configure a cluster client.
type ClusterOptions struct {
	// Client configures each per-shard session (pool size, connection
	// count, retry budget); every shard gets the same configuration.
	Client ClientOptions
}

// ClusterStats are the cluster client's routing and commit counters.
type ClusterStats struct {
	Shards       int    // shards in the adopted table
	Epoch        uint64 // adopted table epoch
	FastCommits  uint64 // transactions whose footprint stayed on one shard
	CrossCommits uint64 // two-phase commits driven to a commit decision
	CrossAborts  uint64 // two-phase commits aborted (conflict or failure)
	Refreshes    uint64 // routing-table re-fetches attempted
	StaleTables  uint64 // fetched tables rejected for a non-newer epoch
}

// ClusterClient fans a workstation session out over a shard cluster.
// It satisfies the same Space contract as a single-server Client —
// the backends cannot tell them apart — by keeping one Client session
// per shard and routing every operation by the page ID's shard byte.
type ClusterClient struct {
	opts ClusterOptions

	// mu guards the adopted table and the per-shard sessions; a table
	// adoption swaps individual sessions, everything else only reads.
	mu    sync.RWMutex
	table RouteTable
	subs  []*Client

	allocCursor atomic.Uint64

	rngMu sync.Mutex
	rng   *rand.Rand // cross-shard commit tokens

	fastCommits  atomic.Uint64
	crossCommits atomic.Uint64
	crossAborts  atomic.Uint64
	refreshes    atomic.Uint64
	staleTables  atomic.Uint64
}

// DialCluster bootstraps from one reachable shard: fetch its routing
// table, then dial every shard in it. A server with an empty table
// (a standalone server never given one) cannot anchor a cluster.
func DialCluster(seed string, opts ClusterOptions) (*ClusterClient, error) {
	boot, err := Dial(seed, opts.Client)
	if err != nil {
		return nil, err
	}
	epoch, addrs, err := boot.RouteTable()
	boot.Close()
	if err != nil {
		return nil, fmt.Errorf("remote: fetch routing table from %s: %w", seed, err)
	}
	return DialClusterTable(RouteTable{Epoch: epoch, Shards: addrs}, opts)
}

// DialClusterTable dials every shard of an explicitly supplied table —
// the path for tests and for deployments that distribute the table out
// of band.
func DialClusterTable(table RouteTable, opts ClusterOptions) (*ClusterClient, error) {
	if len(table.Shards) == 0 {
		return nil, errors.New("remote: empty routing table")
	}
	if len(table.Shards) > maxShards {
		return nil, fmt.Errorf("remote: routing table names %d shards, limit %d", len(table.Shards), maxShards)
	}
	cc := &ClusterClient{
		opts: opts,
		table: RouteTable{
			Epoch:  table.Epoch,
			Shards: append([]string(nil), table.Shards...),
		},
		rng: rand.New(rand.NewSource(rand.Int63())),
	}
	for i, addr := range table.Shards {
		sub, err := Dial(addr, opts.Client)
		if err != nil {
			cc.Close()
			return nil, fmt.Errorf("remote: dial shard %d at %s: %w", i, addr, err)
		}
		cc.subs = append(cc.subs, sub)
	}
	return cc, nil
}

// sub returns the current session for a shard.
func (cc *ClusterClient) sub(shard int) *Client {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.subs[shard]
}

// snapshotSubs returns a stable view of the per-shard sessions for a
// multi-step operation, so a concurrent table adoption cannot swap a
// session out mid-protocol.
func (cc *ClusterClient) snapshotSubs() []*Client {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return append([]*Client(nil), cc.subs...)
}

// ShardCount reports how many shards the adopted table names.
func (cc *ClusterClient) ShardCount() int {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return len(cc.subs)
}

// Epoch reports the adopted routing-table epoch.
func (cc *ClusterClient) Epoch() uint64 {
	cc.mu.RLock()
	defer cc.mu.RUnlock()
	return cc.table.Epoch
}

// Stats reports the cluster client's counters.
func (cc *ClusterClient) Stats() ClusterStats {
	cc.mu.RLock()
	shards, epoch := len(cc.subs), cc.table.Epoch
	cc.mu.RUnlock()
	return ClusterStats{
		Shards:       shards,
		Epoch:        epoch,
		FastCommits:  cc.fastCommits.Load(),
		CrossCommits: cc.crossCommits.Load(),
		CrossAborts:  cc.crossAborts.Load(),
		Refreshes:    cc.refreshes.Load(),
		StaleTables:  cc.staleTables.Load(),
	}
}

// routeCheck validates that an ID routes inside the cluster.
func (cc *ClusterClient) routeCheck(id page.ID) (int, error) {
	sh := shardOfID(id)
	if sh >= cc.ShardCount() {
		return 0, fmt.Errorf("remote: page %#x routes to shard %d, table has %d", uint64(id), sh, cc.ShardCount())
	}
	return sh, nil
}

// Get pins a page from its owning shard. A transport failure that
// survives the session's own retry budget triggers one routing-table
// refresh — the shard may have moved — before the fetch is retried.
func (cc *ClusterClient) Get(id page.ID) (store.Handle, error) { return cc.get(id, nil) }

// GetPath is Get for a B-tree descent (btree.PathGetter): the owning
// shard ships the path below id as far as the path stays on that
// shard, and the descent's next pin routes to wherever it left off.
func (cc *ClusterClient) GetPath(id page.ID, key btree.PathKey) (store.Handle, error) {
	return cc.get(id, key.Bytes())
}

// get routes Client.get to the owning shard.
func (cc *ClusterClient) get(id page.ID, key []byte) (store.Handle, error) {
	sh, err := cc.routeCheck(id)
	if err != nil {
		return nil, err
	}
	h, gerr := cc.sub(sh).get(localIDOf(id), key)
	if gerr != nil && transient(gerr) {
		if rerr := cc.RefreshTable(); rerr == nil {
			return cc.sub(sh).get(localIDOf(id), key)
		}
	}
	return h, gerr
}

// ReadPage fetches one page image from its owning shard without
// touching the session cache — the building block of the wire-level
// throughput experiments, with the same refresh-and-retry recovery
// as Get.
func (cc *ClusterClient) ReadPage(id page.ID) (uint64, *page.Page, error) {
	sh, err := cc.routeCheck(id)
	if err != nil {
		return 0, nil, err
	}
	ver, p, rerr := cc.sub(sh).ReadPage(localIDOf(id))
	if rerr != nil && transient(rerr) {
		if ferr := cc.RefreshTable(); ferr == nil {
			return cc.sub(sh).ReadPage(localIDOf(id))
		}
	}
	return ver, p, rerr
}

// Alloc allocates from the shard the rotating cursor points at,
// handing out allocChunk consecutive pages per shard so clustering
// subtrees built from consecutive allocations stay co-located.
func (cc *ClusterClient) Alloc(t page.Type) (page.ID, store.Handle, error) {
	n := cc.allocCursor.Add(1) - 1
	sh := int(n/allocChunk) % cc.ShardCount()
	id, h, err := cc.sub(sh).Alloc(t)
	if err != nil {
		return page.Invalid, nil, err
	}
	return globalID(sh, id), h, nil
}

// Free queues a page for release on its owning shard at the next
// commit touching that shard.
func (cc *ClusterClient) Free(id page.ID) error {
	sh, err := cc.routeCheck(id)
	if err != nil {
		return err
	}
	return cc.sub(sh).Free(localIDOf(id))
}

// Root reads a root slot. The root directory lives on shard 0; the
// IDs stored in it are cluster-wide, so a root can point anywhere.
func (cc *ClusterClient) Root(slot int) page.ID { return cc.sub(0).Root(slot) }

// SetRoot updates a root slot on shard 0.
func (cc *ClusterClient) SetRoot(slot int, id page.ID) { cc.sub(0).SetRoot(slot, id) }

// groupByShard buckets cluster-wide IDs into per-shard local IDs.
func (cc *ClusterClient) groupByShard(ids []page.ID) (map[int][]page.ID, error) {
	groups := make(map[int][]page.ID)
	for _, id := range ids {
		sh, err := cc.routeCheck(id)
		if err != nil {
			return nil, err
		}
		groups[sh] = append(groups[sh], localIDOf(id))
	}
	return groups, nil
}

// Prefetch warms every shard's cache with its slice of the listed
// pages, all shards fetching concurrently — one opGetPages frontier
// per shard instead of one per cluster.
func (cc *ClusterClient) Prefetch(ids []page.ID) error {
	groups, err := cc.groupByShard(ids)
	if err != nil {
		return err
	}
	if len(groups) == 1 {
		for sh, g := range groups {
			return cc.sub(sh).Prefetch(g)
		}
	}
	errCh := make(chan error, len(groups))
	var wg sync.WaitGroup
	for sh, g := range groups {
		wg.Add(1)
		go func(sh int, g []page.ID) {
			defer wg.Done()
			if err := cc.sub(sh).Prefetch(g); err != nil {
				errCh <- err
			}
		}(sh, g)
	}
	wg.Wait()
	close(errCh)
	return <-errCh
}

// PrefetchAsync starts one asynchronous frontier fetch per shard and
// returns a wait that joins them, reporting the first failure.
func (cc *ClusterClient) PrefetchAsync(ids []page.ID) (wait func() error) {
	groups, err := cc.groupByShard(ids)
	if err != nil {
		return func() error { return err }
	}
	waits := make([]func() error, 0, len(groups))
	for sh, g := range groups {
		waits = append(waits, cc.sub(sh).PrefetchAsync(g))
	}
	return func() error {
		var first error
		for _, w := range waits {
			if werr := w(); werr != nil && first == nil {
				first = werr
			}
		}
		return first
	}
}

// newToken draws a cross-shard commit token: the coordinator's shard
// ID in the top byte, 56 nonzero random bits below — nonzero so the
// untokened-commit sentinel (zero) is never drawn.
func (cc *ClusterClient) newToken(coord int) uint64 {
	cc.rngMu.Lock()
	defer cc.rngMu.Unlock()
	for {
		if t := cc.rng.Uint64() & (1<<shardShift - 1); t != 0 {
			return uint64(coord)<<shardShift | t
		}
	}
}

// Commit finishes the cluster-wide transaction. One-shard footprints
// take that shard's ordinary commit path; anything wider runs
// two-phase commit across the touched shards (see the package
// comment for the protocol and its ordering invariants). On
// ErrConflict every touched session has been reset; the caller
// re-runs its transaction as with a single server.
func (cc *ClusterClient) Commit() error {
	subs := cc.snapshotSubs()
	var parts, dirty []int
	for i, sub := range subs {
		r, w := sub.txnState()
		if r || w {
			parts = append(parts, i)
		}
		if w {
			dirty = append(dirty, i)
		}
	}
	if len(parts) == 0 {
		return nil
	}
	if len(parts) == 1 {
		// The whole footprint — reads included — is one shard: its own
		// optimistic validation covers everything, so the transaction
		// is indistinguishable from a single-server commit.
		cc.fastCommits.Add(1)
		return subs[parts[0]].Commit()
	}
	if len(dirty) == 0 {
		// Read-only across shards: each session takes its own
		// read-only commit path (which applies and validates nothing),
		// preserving single-server read-only semantics per shard.
		for _, i := range parts {
			if err := subs[i].Commit(); err != nil {
				return err
			}
		}
		return nil
	}

	coord := dirty[0]
	token := cc.newToken(coord)
	ordered := make([]int, 0, len(parts))
	ordered = append(ordered, coord)
	for _, i := range parts {
		if i != coord {
			ordered = append(ordered, i)
		}
	}
	// Phase one: prepare the coordinator first, then the participants.
	// Ordering invariant: a participant holding a prepare implies the
	// coordinator durably knows the transaction, so an in-doubt
	// participant can always get its answer (or a presumed abort) from
	// the coordinator.
	for _, i := range ordered {
		if err := subs[i].prepareShard(token); err != nil {
			cc.abortCluster(subs, token, ordered)
			if errors.Is(err, ErrConflict) {
				return ErrConflict
			}
			return err
		}
	}
	// Phase two, commit point: the coordinator's durable decide. If the
	// answer is lost in transit, ask what happened before giving up —
	// the decide may well have landed.
	if err := subs[coord].decideShard(token, true); err != nil {
		state, cerr := subs[coord].CommitCheck(token)
		switch {
		case cerr == nil && state == checkCommitted:
			// Committed; only the acknowledgement was lost.
		case cerr == nil && state == checkAborted:
			// The coordinator's resolver presumed abort before our
			// decide arrived (or the decide itself was refused).
			cc.abortCluster(subs, token, ordered)
			return ErrConflict
		default:
			// Unknown: the shard resolvers will settle the prepared
			// state either way; the sessions must not keep phantom
			// dirty pages while they do.
			for _, i := range ordered {
				subs[i].resetSession()
			}
			cc.crossAborts.Add(1)
			return fmt.Errorf("%w: cross-shard decide on shard %d: %v", ErrCommitUnknown, coord, err)
		}
		// The commit stood but the session missed its bookkeeping;
		// reset rather than guess at versions.
		subs[coord].resetSession()
	}
	cc.crossCommits.Add(1)
	for _, i := range ordered[1:] {
		if err := subs[i].decideShard(token, true); err != nil {
			// The decision is already durable at the coordinator: this
			// shard's server will learn it from its resolver. Only the
			// local session needs cleaning up.
			subs[i].resetSession()
		}
	}
	return nil
}

// abortCluster delivers an abort decision to every touched shard,
// coordinator first so the tombstone of record exists before any
// participant forgets: ordered[0] is the coordinator by construction.
// Wire failures are ignored — an unreachable shard's resolver will
// poll the coordinator's tombstone — but every local session is reset.
func (cc *ClusterClient) abortCluster(subs []*Client, token uint64, ordered []int) {
	for _, i := range ordered {
		subs[i].decideShard(token, false)
	}
	cc.crossAborts.Add(1)
}

// RefreshTable re-fetches the routing table from every reachable
// shard and adopts the newest, if it is newer than the one held.
// Tables with a non-newer epoch are counted stale and ignored, so a
// lagging shard cannot roll the client back to addresses that died.
func (cc *ClusterClient) RefreshTable() error {
	cc.refreshes.Add(1)
	subs := cc.snapshotSubs()
	curEpoch := cc.Epoch()
	var best RouteTable
	var lastErr error
	reachable := false
	for _, sub := range subs {
		epoch, addrs, err := sub.RouteTable()
		if err != nil {
			lastErr = err
			continue
		}
		reachable = true
		if epoch <= curEpoch {
			cc.staleTables.Add(1)
			continue
		}
		if epoch > best.Epoch {
			best = RouteTable{Epoch: epoch, Shards: addrs}
		}
	}
	if !reachable {
		return fmt.Errorf("remote: routing refresh: no shard reachable: %w", lastErr)
	}
	if best.Epoch == 0 {
		return nil // nothing newer anywhere; keep what we have
	}
	return cc.adoptTable(best)
}

// adoptTable swaps in a newer routing table, redialing only the shards
// whose address changed. The shard count is fixed for the life of a
// client: IDs already handed out embed shard numbers, so a table that
// renumbers the cluster cannot be adopted by a live session. All
// dialing and closing happens outside the table lock; the swap itself
// is atomic, and a dial failure adopts nothing.
func (cc *ClusterClient) adoptTable(t RouteTable) error {
	cc.mu.RLock()
	curEpoch := t.Epoch <= cc.table.Epoch
	curShards := append([]string(nil), cc.table.Shards...)
	cc.mu.RUnlock()
	if curEpoch {
		cc.staleTables.Add(1)
		return nil // raced with another refresh
	}
	if len(t.Shards) != len(curShards) {
		return fmt.Errorf("remote: routing table epoch %d renumbers the cluster (%d shards, have %d)",
			t.Epoch, len(t.Shards), len(curShards))
	}
	fresh := make(map[int]*Client)
	for i, addr := range t.Shards {
		if addr == curShards[i] {
			continue
		}
		sub, err := Dial(addr, cc.opts.Client)
		if err != nil {
			for _, f := range fresh {
				f.Close()
			}
			return fmt.Errorf("remote: adopt table epoch %d: dial shard %d at %s: %w", t.Epoch, i, addr, err)
		}
		fresh[i] = sub
	}
	var retired []*Client
	cc.mu.Lock()
	if t.Epoch <= cc.table.Epoch {
		// Lost the adoption race while dialing; the winner's table is
		// at least as new as ours.
		cc.mu.Unlock()
		cc.staleTables.Add(1)
		retired = make([]*Client, 0, len(fresh))
		for _, f := range fresh {
			retired = append(retired, f)
		}
	} else {
		for i, f := range fresh {
			retired = append(retired, cc.subs[i])
			cc.subs[i] = f
		}
		cc.table = RouteTable{Epoch: t.Epoch, Shards: append([]string(nil), t.Shards...)}
		cc.mu.Unlock()
	}
	for _, old := range retired {
		old.Close()
	}
	return nil
}

// Abort discards uncommitted state on every shard session.
func (cc *ClusterClient) Abort() error {
	var first error
	for _, sub := range cc.snapshotSubs() {
		if err := sub.Abort(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DropCache empties every shard session's cache (the cold-run reset).
func (cc *ClusterClient) DropCache() error {
	var first error
	for _, sub := range cc.snapshotSubs() {
		if err := sub.DropCache(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CacheStats sums the per-shard session cache counters.
func (cc *ClusterClient) CacheStats() (hits, misses, reads uint64) {
	for _, sub := range cc.snapshotSubs() {
		h, m, r := sub.CacheStats()
		hits, misses, reads = hits+h, misses+m, reads+r
	}
	return hits, misses, reads
}

// CommitStats sums acknowledged commits and validation conflicts
// across the shard sessions.
func (cc *ClusterClient) CommitStats() (commits, conflicts uint64) {
	for _, sub := range cc.snapshotSubs() {
		c, f := sub.CommitStats()
		commits, conflicts = commits+c, conflicts+f
	}
	return commits, conflicts
}

// RetryStats sums the per-shard fault-tolerance counters.
func (cc *ClusterClient) RetryStats() RetryStats {
	var out RetryStats
	for _, sub := range cc.snapshotSubs() {
		rs := sub.RetryStats()
		out.Reconnects += rs.Reconnects
		out.Retries += rs.Retries
		out.Downgrades += rs.Downgrades
		out.CommitChecks += rs.CommitChecks
		out.CommitResends += rs.CommitResends
		out.CommitUnknowns += rs.CommitUnknowns
		out.CorruptRefetches += rs.CorruptRefetches
	}
	return out
}

// Close terminates every shard session.
func (cc *ClusterClient) Close() error {
	var first error
	for _, sub := range cc.snapshotSubs() {
		if sub == nil {
			continue
		}
		if err := sub.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

var (
	_ store.Space      = (*ClusterClient)(nil)
	_ btree.PathGetter = (*ClusterClient)(nil)
)
