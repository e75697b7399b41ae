GO ?= go

.PHONY: build test vet fmt-check linkgate race check-bench check bench fmt

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# race runs the full suite under the race detector; the serve shutdown
# hammer and the parallel/engine cancellation tests are the main targets.
race:
	$(GO) test -race ./...

# bench/ is its own module: the root ./... never sees it, so a change
# could delete an API the benchmark imports and stay green without this.
check-bench:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# fmt-check fails when any package directory of the root module is not
# gofmt-clean; `make fmt` fixes it.
fmt-check:
	test -z "$$(gofmt -l $$($(GO) list -f '{{.Dir}}' ./...))"

# linkgate fails on any function under internal/ that no command, example
# or the benchmark links and its allowlist does not name (linkgate.go).
linkgate:
	$(GO) run linkgate.go

check: build vet fmt-check test linkgate check-bench race

bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

fmt:
	gofmt -w $$($(GO) list -f '{{.Dir}}' ./...)
