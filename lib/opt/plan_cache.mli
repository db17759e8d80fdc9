(** Compiled-plan cache.

    Plan compilation is pure in the structure of its inputs, so plans
    are memoized under a canonical fingerprint of the
    (MINT, PRES, encoding) triple plus roots and compiler options.  The
    full fingerprint string indexes the table — no hash truncation, so
    two different inputs can never alias one plan.  Fingerprints are
    recomputed at every lookup, which makes mutation through
    {!Mint.set} safe: a changed graph fingerprints differently.

    {!plan} is the front door used by the stub engine and the C back
    ends: compile once, run the {!Pass} pipeline the {!Opt_config}
    selects, and reuse the result for every structurally identical
    request.  The pass {e selection} is part of every key, so
    differently configured pipelines cache separately; the verify flag
    is not, since verification never changes a plan.  The generic cache
    type below also backs the engine's encoder/decoder closure caches,
    all visible through one stats registry (surfaced by
    [bench/main.exe planopt] and [decplan]). *)

(** {1 Generic named caches} *)

type 'a t
(** A string-keyed memo table with hit/miss counters, registered under
    a name at creation. *)

type stats = {
  hits : int;
  misses : int;
  entries : int;
  evictions : int;
  resets : int;
}
(** One record for every cache, encode and decode alike: [evictions]
    counts entries dropped by overflow resets since the last
    {!reset_all}; [resets] counts the overflow events themselves, so
    one mass-eviction reads differently from sustained churn.  Every
    cache is also re-exported through the {!Obs} registry as the
    ["cache"] probe ([cache.<name>.hits] and friends). *)

val hit_rate : stats -> float
(** [hits / (hits + misses)], 0. when the cache was never consulted. *)

val create : name:string -> ?max_entries:int -> unit -> 'a t
(** [max_entries] (default 512) bounds the table; on overflow the whole
    table is dropped (stub working sets are tiny; recency tracking is
    not worth its bookkeeping). *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
(** Return the cached value for the key, building and inserting it on a
    miss.  An exception from the builder propagates and caches
    nothing. *)

val cache_stats : 'a t -> stats
val all_stats : unit -> (string * stats) list
(** Stats for every cache created so far, in creation order. *)

val reset_all : unit -> unit
(** Drop all entries and zero all counters (benchmark isolation). *)

(** {1 Structural fingerprints}

    Exposed so other layers (e.g. the stub engine's decoder cache) can
    key on the same canonical serialization. *)

type fp

val fp_create :
  enc:Encoding.t ->
  mint:Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  unit ->
  fp
(** A fingerprint seeded with the encoding and the named-presentation
    environment. *)

val fp_tag : fp -> string -> unit
(** Append a distinguishing tag (length-prefixed). *)

val fp_int : fp -> int -> unit
val fp_kind : fp -> Encoding.atom_kind -> unit

val fp_type : fp -> Mint.idx -> Pres.t -> unit
(** Append a (MINT, PRES) pair; the MINT subgraph is serialized
    depth-first with back references for cycles. *)

val fp_root : fp -> Plan_compile.root -> unit
val fp_droot : fp -> Dplan_compile.droot -> unit
val fp_contents : fp -> string

(** {1 The shared plan cache} *)

val plan :
  enc:Encoding.t ->
  mint:Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  ?start:int * int ->
  ?unroll_limit:int ->
  ?chunked:bool ->
  ?config:Opt_config.t ->
  ?sg:bool ->
  ?sg_threshold:int ->
  Plan_compile.root list ->
  Plan_compile.plan
(** Cached, pass-optimized {!Plan_compile.compile} (same defaults).
    [config] (default {!Opt_config.default}) selects the {!Pass}
    pipeline; its selection fingerprints into the key, so
    [Opt_config.none] caches separately from the full pipeline.  The
    scatter-gather options (defaulting to the {!Mbuf} globals) are part
    of the cache key, since they change plan structure. *)

val dplan :
  enc:Encoding.t ->
  mint:Mint.t ->
  named:(string * (Mint.idx * Pres.t)) list ->
  ?start:int * int ->
  ?chunked:bool ->
  ?config:Opt_config.t ->
  ?views:bool ->
  ?view_threshold:int ->
  Dplan_compile.droot list ->
  Dplan.plan
(** Cached, pass-optimized {!Dplan_compile.compile} (same defaults).
    The view options are part of the cache key — a view-enabled plan
    splits large byte runs differently — as are [chunked] and the
    [config] pass selection. *)
