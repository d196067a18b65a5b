package core

import (
	"context"
	"iter"

	"passcloud/internal/cloud/retry"
	"passcloud/internal/cloud/s3"
	"passcloud/internal/cloud/sdb"
)

// Pages streams a paginated cloud listing, the one loop every
// architecture enumerates its repository with (§5, Q.1: S3 LIST for the
// S3-only design, SimpleDB Select and Query for the indexed ones). Before
// each page it checks ctx; each page request runs through r.Do under op
// (a nil r issues it once, as the retrier does); it follows the token
// fetch returns until that token is empty. The sequence ends after the
// first error it yields.
func Pages[P any](ctx context.Context, r *retry.Retrier, op string, fetch func(token string) (P, string, error)) iter.Seq2[P, error] {
	return func(yield func(P, error) bool) {
		var zero P
		token := ""
		for {
			if err := ctx.Err(); err != nil {
				yield(zero, err)
				return
			}
			var page P
			var next string
			err := r.Do(ctx, op, func() error {
				var ferr error
				page, next, ferr = fetch(token)
				return ferr
			})
			if err != nil {
				yield(zero, err)
				return
			}
			if !yield(page, nil) || next == "" {
				return
			}
			token = next
		}
	}
}

// ListPages pages an S3 LIST of bucket under prefix.
func ListPages(ctx context.Context, r *retry.Retrier, op string, svc *s3.Service, bucket, prefix string) iter.Seq2[[]s3.Info, error] {
	return Pages(ctx, r, op, func(marker string) ([]s3.Info, string, error) {
		page, err := svc.List(bucket, prefix, marker, 0)
		if err != nil {
			return nil, "", err
		}
		if !page.IsTruncated {
			return page.Objects, "", nil
		}
		return page.Objects, page.NextMarker, nil
	})
}

// SelectPages pages a SimpleDB Select expression's items.
func SelectPages(ctx context.Context, r *retry.Retrier, op string, svc *sdb.Service, expr string) iter.Seq2[[]sdb.Item, error] {
	return Pages(ctx, r, op, func(token string) ([]sdb.Item, string, error) {
		res, err := svc.Select(expr, token)
		if err != nil {
			return nil, "", err
		}
		return res.Items, res.NextToken, nil
	})
}

// QueryPages pages the item names a SimpleDB Query expression matches.
func QueryPages(ctx context.Context, r *retry.Retrier, op string, svc *sdb.Service, domain, expr string) iter.Seq2[[]string, error] {
	return Pages(ctx, r, op, func(token string) ([]string, string, error) {
		res, err := svc.Query(domain, expr, 0, token)
		if err != nil {
			return nil, "", err
		}
		return res.ItemNames, res.NextToken, nil
	})
}

// QueryAttrPages pages a SimpleDB QueryWithAttributes expression's items,
// each carrying the requested attributes.
func QueryAttrPages(ctx context.Context, r *retry.Retrier, op string, svc *sdb.Service, domain, expr string, attrNames []string) iter.Seq2[[]sdb.Item, error] {
	return Pages(ctx, r, op, func(token string) ([]sdb.Item, string, error) {
		res, err := svc.QueryWithAttributes(domain, expr, attrNames, 0, token)
		if err != nil {
			return nil, "", err
		}
		return res.Items, res.NextToken, nil
	})
}
