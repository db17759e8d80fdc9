(** Rendering for [flick dump-plan].

    Factored out of the CLI so [test/test_driver.ml] can cover the
    decode and pass-trace paths directly.  All failures — unknown
    [--op], unsupported IDL/presentation combinations, and even
    [Invalid_argument] escaping a plan compiler — are reported by
    raising {!Diag.Error}, which the CLI formats and turns into a
    non-zero exit. *)

type mode =
  | Marshal  (** the client-side encode plan (default) *)
  | Unmarshal  (** the server-side decode plan ([--decode]) *)
  | Trace
      (** per-pass optimizer trace for the encode and decode plans of
          each stub, in both chunked and per-datum compilation modes
          ([--trace-passes]): node and bounds-check counts before/after
          every pass plus wall time, with the verifier forced on *)
  | Forward of Driver.backend
      (** the fused gateway relay plan ([--forward BACKEND]): the
          request message arriving under the source backend's encoding
          re-emitted under the destination backend's, every op line
          annotated with its copy-elision provenance ([# blit] /
          [# borrow] / [# convert] / [# fixup] / [# fallback]), with a
          rolled-up elision tally *)

val render :
  idl:Driver.idl ->
  pres:Driver.presentation ->
  backend:Driver.backend ->
  interface:string option ->
  op:string option ->
  mode:mode ->
  ?config:Opt_config.t ->
  ?encoding:Encoding.t ->
  file:string ->
  source:string ->
  unit ->
  string
(** Render the plans (or traces) for every selected stub.  [op] limits
    output to one operation and raises {!Diag.Error} when no stub has
    that name, listing the operations that exist.  [config] (default
    {!Opt_config.default}) selects the {!Pass} pipeline; an unknown
    pass name in an [Only] selection is a diagnostic too.  [encoding]
    overrides the backend transport's wire format — the way to inspect
    the value-dependent msgpack/cbor plans, which no transport selects
    on its own; the plan headers then carry both names. *)
