package passcloud

import (
	"context"
	"fmt"
	"sync"

	"passcloud/internal/cloud"
	"passcloud/internal/core"
	"passcloud/internal/core/s3only"
	"passcloud/internal/core/s3sdb"
	"passcloud/internal/core/s3sdbsqs"
	"passcloud/internal/core/shard"
	"passcloud/internal/pass"
	"passcloud/internal/prov"
)

// Region is one simulated AWS region shared by several clients — the
// paper's usage model: "multiple clients can concurrently update different
// objects at the same time", and in the third architecture "each client has
// an SQS queue that it uses as a write-ahead log".
//
// All clients of a region see the same buckets and provenance domain;
// clients of the WAL architecture each get their own queue and commit
// daemon. Provenance written by one client is queryable by every other
// (after Sync/Settle), which is the whole point of a provenance-aware
// shared cloud.
//
// With Options.Shards or Options.Tenant set, the region hosts multiple
// isolated namespaces: clients of the same tenant share that tenant's
// shard namespaces; clients of different tenants (NewTenantClient) share
// nothing but the simulated clock.
type Region struct {
	opts  Options
	cloud *cloud.Cloud // unsharded substrate; nil when sharded
	multi *cloud.Multi // multi-namespace substrate; nil when unsharded

	mu       sync.Mutex
	nclients int
}

// NewRegion builds a shared region. Options.ClientID is ignored here; each
// client gets its own.
func NewRegion(opts Options) (*Region, error) {
	switch opts.Architecture {
	case S3Only, S3SimpleDB, S3SimpleDBSQS:
	default:
		return nil, fmt.Errorf("passcloud: unknown architecture %v", opts.Architecture)
	}
	cfg := cloud.Config{Seed: opts.Seed, MaxDelay: opts.ConsistencyDelay}
	if sharded(opts) {
		return &Region{opts: opts, multi: cloud.NewMulti(cfg)}, nil
	}
	return &Region{opts: opts, cloud: cloud.New(cfg)}, nil
}

// NewClient attaches a client to the region. An empty id is assigned
// automatically.
func (r *Region) NewClient(id string) (*Client, error) {
	return r.NewTenantClient(r.opts.Tenant, id)
}

// NewTenantClient attaches a client to the region under the named tenant.
// Tenants are isolated: their namespaces (buckets, domains, queues,
// billing meters) are disjoint, so one tenant's clients can never read —
// or pay for — another tenant's provenance. Requires a sharded or
// tenant-labelled region (Options.Shards or Options.Tenant set); on a
// plain region the tenant must match the region's (empty) tenant.
func (r *Region) NewTenantClient(tenant, id string) (*Client, error) {
	r.mu.Lock()
	r.nclients++
	if id == "" {
		id = fmt.Sprintf("client%d", r.nclients)
	}
	r.mu.Unlock()

	opts := r.opts
	opts.ClientID = id
	opts.Tenant = tenant
	if r.multi != nil {
		return newShardedClient(r.multi, opts)
	}
	if tenant != "" {
		return nil, fmt.Errorf("passcloud: region was built without tenancy (set Options.Shards or Options.Tenant)")
	}
	return newClientOn(r.cloud, opts)
}

// Settle advances the region's clock past the replication horizon.
func (r *Region) Settle() {
	if r.multi != nil {
		r.multi.Settle()
		return
	}
	r.cloud.Settle()
}

// Usage summarizes the whole region's bill (all clients, all tenants).
func (r *Region) Usage() UsageSummary {
	if r.multi != nil {
		return usageFrom(r.multi.Combined())
	}
	return usageSummary(r.cloud)
}

// newClientOn builds a client against an existing single-namespace
// region. New and Region.NewClient funnel through here when unsharded.
func newClientOn(cl *cloud.Cloud, opts Options) (*Client, error) {
	c := &Client{opts: opts, cloud: cl}

	st, daemon, err := newStoreOn(cl, opts, opts.ClientID)
	if err != nil {
		return nil, err
	}
	c.store = st
	c.shardStores = []shard.Store{st}
	if daemon != nil {
		c.daemons = append(c.daemons, daemon)
	}
	c.sys = pass.NewSystem(pass.Config{
		Kernel:       opts.Kernel,
		Namespace:    opts.ClientID,
		Flush:        core.Flusher(c.store),
		DisableChain: opts.DisableIntegrity,
	})
	return c, nil
}

// newStoreOn builds one architecture store (and its commit daemon, for
// the WAL design) on one namespace.
func newStoreOn(cl *cloud.Cloud, opts Options, clientID string) (shard.Store, *s3sdbsqs.CommitDaemon, error) {
	switch opts.Architecture {
	case S3Only:
		st, err := s3only.New(s3only.Config{
			Cloud: cl, Bucket: opts.Bucket, DisableQueryCache: opts.DisableQueryCache,
			Writer: clientLabel(clientID), DisableIntegrity: opts.DisableIntegrity,
		})
		return st, nil, err
	case S3SimpleDB:
		st, err := s3sdb.New(s3sdb.Config{
			Cloud: cl, Bucket: opts.Bucket, Domain: opts.Domain,
			DisableQueryCache: opts.DisableQueryCache,
			Writer:            clientLabel(clientID), DisableIntegrity: opts.DisableIntegrity,
		})
		return st, nil, err
	case S3SimpleDBSQS:
		st, err := s3sdbsqs.New(s3sdbsqs.Config{
			Cloud: cl, Bucket: opts.Bucket, Domain: opts.Domain, ClientID: clientID,
			DisableQueryCache: opts.DisableQueryCache, DisableIntegrity: opts.DisableIntegrity,
		})
		if err != nil {
			return nil, nil, err
		}
		return st, s3sdbsqs.NewCommitDaemon(st, nil), nil
	default:
		return nil, nil, fmt.Errorf("passcloud: unknown architecture %v", opts.Architecture)
	}
}

// tenantLabel is the namespace prefix a tenant's shards live under.
func tenantLabel(tenant string) string {
	if tenant == "" {
		return "default"
	}
	return tenant
}

// newShardedClient builds a client whose store is a consistent-hash
// router over per-shard stores, each on its own namespace of the shared
// multi-namespace region. Namespace (billing) keys are
// "<tenant>/shard<i>", so clients of one tenant share state while
// tenants stay isolated.
func newShardedClient(m *cloud.Multi, opts Options) (*Client, error) {
	n := opts.Shards
	if n <= 0 {
		n = 1
	}
	c := &Client{opts: opts, multi: m}
	stores := make([]shard.Store, n)
	for i := 0; i < n; i++ {
		cl := m.Namespace(fmt.Sprintf("%s/shard%d", tenantLabel(opts.Tenant), i))
		st, daemon, err := newStoreOn(cl, opts, fmt.Sprintf("%s-s%d", clientLabel(opts.ClientID), i))
		if err != nil {
			return nil, err
		}
		stores[i] = st
		c.shardClouds = append(c.shardClouds, cl)
		if daemon != nil {
			c.daemons = append(c.daemons, daemon)
		}
	}
	if n == 1 {
		c.store = stores[0]
	} else {
		r, err := shard.New(shard.Config{Shards: stores})
		if err != nil {
			return nil, err
		}
		c.store = r
		c.router = r
	}
	c.shardStores = stores
	c.sys = pass.NewSystem(pass.Config{
		Kernel:       opts.Kernel,
		Namespace:    opts.ClientID,
		Flush:        core.Flusher(c.store),
		DisableChain: opts.DisableIntegrity,
	})
	return c, nil
}

// clientLabel defaults an empty client id (the WAL queue name needs one).
func clientLabel(id string) string {
	if id == "" {
		return "client0"
	}
	return id
}

// ErrHasDependents is returned by SafeDelete when living derivations exist.
type ErrHasDependents struct {
	Object     string
	Dependents []Ref
}

// Error implements the error interface.
func (e *ErrHasDependents) Error() string {
	return fmt.Sprintf("passcloud: %s has %d dependent object versions; refusing to delete",
		e.Object, len(e.Dependents))
}

// SafeDelete removes path's data only if nothing in the repository derives
// from it — the kind of provenance-aware behaviour the paper's §7 suggests
// a cloud could offer once it holds the provenance ("the provenance stored
// with the data presents AWS cloud with many hints"). The provenance record
// itself is retained: lineage of deleted data is still history.
//
// The check is one descriptor: every version whose inputs name any version
// of path ({RefPrefix: path + ":", Direction: TraverseDescendants, Depth:
// 1, IncludeSeeds: true}), one indexed starts-with query on the SimpleDB
// architectures.
func (c *Client) SafeDelete(ctx context.Context, path string) error {
	q, err := c.querier()
	if err != nil {
		return err
	}
	deps, err := core.CollectRefs(q.Query(ctx, prov.QDependents(prov.ObjectID(path))))
	if err != nil {
		return err
	}
	if len(deps) > 0 {
		return &ErrHasDependents{Object: path, Dependents: toPublicRefs(deps)}
	}
	return c.deleteData(path)
}

// deleteData removes the object's data from S3 (architecture-independent:
// all three keep data under the same key scheme). On a sharded client the
// delete routes to the object's home namespace.
func (c *Client) deleteData(path string) error {
	cl := c.cloud
	if len(c.shardClouds) > 0 {
		i := 0
		if c.router != nil {
			i = c.router.ShardFor(prov.ObjectID(path))
		}
		cl = c.shardClouds[i]
	}
	return cl.S3.Delete(c.bucketName(), "data"+path)
}

// bucketName resolves the configured or default bucket.
func (c *Client) bucketName() string {
	if c.opts.Bucket != "" {
		return c.opts.Bucket
	}
	return "pass"
}

// usageSummary converts a cloud's meters into the public summary.
func usageSummary(cl *cloud.Cloud) UsageSummary {
	return usageFrom(cl.Usage())
}
