(* The central correctness properties of the reproduction:

   1. the optimized, rpcgen-style, and interpretive engines produce
      byte-identical messages for every type and value (so the
      benchmarks compare work-per-byte, never different formats);
   2. decode . encode = identity for every engine pair;
   3. storage analysis: when [max_size] is Some n, no encoding of any
      value exceeds n.

   Types, presentations, and values are generated randomly. *)

module G = QCheck.Gen

type case = {
  label : string;
  mint : Mint.t;
  named : (string * (Mint.idx * Pres.t)) list;
  idx : Mint.idx;
  pres : Pres.t;
}

(* -- random (MINT, PRES) pairs -------------------------------------- *)

let gen_case : case G.t =
 fun st ->
  let mint = Mint.create () in
  let buf = Buffer.create 64 in
  let rec gen depth : Mint.idx * Pres.t =
    let leaf () =
      match Random.State.int st 8 with
      | 0 ->
          Buffer.add_string buf "b";
          (Mint.bool_ mint, Pres.Direct)
      | 1 ->
          Buffer.add_string buf "c";
          (Mint.char8 mint, Pres.Direct)
      | 2 ->
          Buffer.add_string buf "i16";
          (Mint.int_ mint ~bits:16 ~signed:true, Pres.Direct)
      | 3 ->
          Buffer.add_string buf "u32";
          (Mint.int_ mint ~bits:32 ~signed:false, Pres.Direct)
      | 4 ->
          Buffer.add_string buf "i64";
          (Mint.int_ mint ~bits:64 ~signed:true, Pres.Direct)
      | 5 ->
          Buffer.add_string buf "f64";
          (Mint.float_ mint ~bits:64, Pres.Direct)
      | 6 ->
          Buffer.add_string buf "s";
          (Mint.string_ mint ~max_len:(Some 16), Pres.Terminated_string)
      | _ ->
          Buffer.add_string buf "i32";
          (Mint.int32 mint, Pres.Direct)
    in
    if depth >= 3 then leaf ()
    else
      match Random.State.int st 12 with
      | 0 | 1 | 2 | 3 -> leaf ()
      | 4 ->
          (* fixed array *)
          let n = 1 + Random.State.int st 5 in
          Buffer.add_string buf (Printf.sprintf "[%d]" n);
          let e, ep = gen (depth + 1) in
          (Mint.fixed_array mint ~elem:e ~len:n, Pres.Fixed_array ep)
      | 5 | 6 ->
          (* counted sequence *)
          Buffer.add_string buf "seq";
          let e, ep = gen (depth + 1) in
          ( Mint.array mint ~elem:e ~min_len:0 ~max_len:(Some 8),
            Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = ep } )
      | 7 ->
          Buffer.add_string buf "opt";
          let e, ep = gen (depth + 1) in
          (Mint.array mint ~elem:e ~min_len:0 ~max_len:(Some 1), Pres.Opt_ptr ep)
      | 8 | 9 | 10 ->
          let n = 1 + Random.State.int st 4 in
          Buffer.add_string buf (Printf.sprintf "struct%d(" n);
          let fields =
            List.init n (fun i ->
                let f, fp = gen (depth + 1) in
                (Printf.sprintf "f%d" i, f, fp))
          in
          Buffer.add_string buf ")";
          ( Mint.struct_ mint (List.map (fun (n', f, _) -> (n', f)) fields),
            Pres.Struct (List.map (fun (n', _, fp) -> (n', fp)) fields) )
      | _ ->
          let n = 1 + Random.State.int st 3 in
          let with_default = Random.State.bool st in
          Buffer.add_string buf (Printf.sprintf "union%d%s(" n (if with_default then "+d" else ""));
          let arms =
            List.init n (fun i ->
                let f, fp = gen (depth + 1) in
                (i, f, fp))
          in
          let default =
            if with_default then Some (gen (depth + 1)) else None
          in
          Buffer.add_string buf ")";
          let discrim = Mint.int32 mint in
          ( Mint.union mint ~discrim
              ~cases:
                (List.map
                   (fun (i, f, _) ->
                     { Mint.c_const = Mint.Cint (Int64.of_int (i * 3)); c_body = f })
                   arms)
              ~default:(Option.map (fun (d, _) -> d) default),
            Pres.Union
              {
                discrim_field = "_d";
                union_field = "_u";
                arms =
                  List.map (fun (i, _, fp) -> (Printf.sprintf "a%d" i, fp)) arms;
                default_arm = Option.map (fun (_, dp) -> ("dflt", dp)) default;
              } )
  in
  let idx, pres = gen 0 in
  { label = Buffer.contents buf; mint; named = []; idx; pres }

let arbitrary_case =
  QCheck.make ~print:(fun c -> c.label) gen_case

(* -- helpers --------------------------------------------------------- *)

let rng = Random.State.make [| 0x5eed |]

let encode_with compile enc (c : case) roots v =
  let encoder = compile ~enc ~mint:c.mint ~named:c.named roots in
  let buf = Mbuf.create 64 in
  encoder buf [| v |];
  Bytes.to_string (Mbuf.contents buf)

(* eta-expanded so [encode_with] sees the exact arrow it expects despite
   [?config] on the real entry point *)
let opt_encoder ~enc ~mint ~named roots =
  Stub_opt.compile_encoder ~enc ~mint ~named roots

let roots_of (c : case) =
  [
    Plan_compile.Rvalue
      (Mplan.Rparam { index = 0; name = "p"; deref = false }, c.idx, c.pres);
  ]

let droots_of (c : case) = [ Stub_opt.Dvalue (c.idx, c.pres) ]

let hex s =
  String.concat "" (List.map (Printf.sprintf "%02x") (List.map Char.code (List.of_seq (String.to_seq s))))

let equivalence_prop enc (c : case) =
  let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
  let opt = encode_with opt_encoder enc c (roots_of c) v in
  let naive =
    encode_with
      (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
      enc c (roots_of c) v
  in
  let interp = encode_with Stub_interp.compile_encoder enc c (roots_of c) v in
  if opt <> naive then
    QCheck.Test.fail_reportf "opt/naive bytes differ on %s:@.%s@.%s" c.label
      (hex opt) (hex naive);
  if opt <> interp then
    QCheck.Test.fail_reportf "opt/interp bytes differ on %s:@.%s@.%s" c.label
      (hex opt) (hex interp);
  true

(* The peephole pass is invisible on the wire: executing the optimized
   plan yields the same bytes as the raw plan and as both reference
   engines.  (test_peephole.ml runs the heavyweight version of this at
   >= 1000 cases per paper encoding; this keeps the property visible
   next to its siblings.) *)
let peephole_prop enc (c : case) =
  let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
  let raw = Plan_compile.compile ~enc ~mint:c.mint ~named:c.named (roots_of c) in
  let encode plan =
    let buf = Mbuf.create 64 in
    Stub_opt.encoder_of_plan ~enc plan buf [| v |];
    Bytes.to_string (Mbuf.contents buf)
  in
  let before = encode raw in
  let after = encode (Peephole.optimize_plan raw) in
  let naive =
    encode_with
      (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
      enc c (roots_of c) v
  in
  if before <> after then
    QCheck.Test.fail_reportf "peephole changed bytes on %s:@.%s@.%s" c.label
      (hex before) (hex after);
  if after <> naive then
    QCheck.Test.fail_reportf "peephole/naive bytes differ on %s:@.%s@.%s"
      c.label (hex after) (hex naive);
  true

let roundtrip_prop enc decoder_of (c : case) =
  let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
  let bytes = encode_with opt_encoder enc c (roots_of c) v in
  let decoder = decoder_of ~enc ~mint:c.mint ~named:c.named (droots_of c) in
  let r = Mbuf.reader_of_bytes (Bytes.of_string bytes) in
  match decoder r with
  | [| v' |] ->
      if not (Value.equal v v') then
        QCheck.Test.fail_reportf "roundtrip mismatch on %s:@.%a@.%a" c.label
          Value.pp v Value.pp v'
      else if Mbuf.remaining r <> 0 then
        QCheck.Test.fail_reportf "trailing bytes on %s" c.label
      else true
  | _ -> QCheck.Test.fail_reportf "wrong arity"

let bound_prop enc (c : case) =
  match Plan_compile.max_size ~enc ~mint:c.mint c.idx c.pres with
  | None -> true
  | Some bound ->
      let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
      let bytes = encode_with opt_encoder enc c (roots_of c) v in
      if String.length bytes > bound then
        QCheck.Test.fail_reportf
          "encoded %d bytes exceeds analyzed bound %d on %s"
          (String.length bytes) bound c.label
      else true

let qtest name prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:300 ~name arbitrary_case prop)

let property_tests =
  List.concat_map
    (fun enc ->
      let n = enc.Encoding.name in
      [
        qtest (n ^ ": three engines agree byte-for-byte") (equivalence_prop enc);
        qtest (n ^ ": peephole-optimized plans are wire-invisible")
          (peephole_prop enc);
        qtest (n ^ ": optimized decode inverts encode")
          (roundtrip_prop enc (fun ~enc ~mint ~named droots ->
             Stub_opt.compile_decoder ~enc ~mint ~named droots));
        qtest (n ^ ": naive decode inverts encode")
          (roundtrip_prop enc (Stub_naive.compile_decoder ~config:Stub_naive.default_config));
        qtest (n ^ ": storage bound holds") (bound_prop enc);
      ])
    Encoding.all

(* -- recursive types (named presentations) --------------------------- *)

let linked_list_case () =
  let mint = Mint.create () in
  let node = Mint.reserve mint in
  let next = Mint.array mint ~elem:node ~min_len:0 ~max_len:(Some 1) in
  Mint.set mint node (Mint.Struct [ ("v", Mint.int32 mint); ("next", next) ]);
  let node_pres =
    Pres.Struct [ ("v", Pres.Direct); ("next", Pres.Opt_ptr (Pres.Ref "node")) ]
  in
  {
    label = "linked-list";
    mint;
    named = [ ("node", (node, node_pres)) ];
    idx = node;
    pres = Pres.Ref "node";
  }

let rec list_value n =
  if n = 0 then Value.Vstruct [| Value.Vint 0; Value.Vopt None |]
  else Value.Vstruct [| Value.Vint n; Value.Vopt (Some (list_value (n - 1))) |]

let recursive_tests =
  List.map
    (fun enc ->
      Alcotest.test_case
        (enc.Encoding.name ^ ": recursive linked list across engines") `Quick
        (fun () ->
          let c = linked_list_case () in
          let v = list_value 17 in
          let opt =
    encode_with
      (fun ~enc ~mint ~named roots ->
        Stub_opt.compile_encoder ~enc ~mint ~named roots)
      enc c (roots_of c) v
  in
          let naive =
            encode_with
              (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
              enc c (roots_of c) v
          in
          let interp =
            encode_with Stub_interp.compile_encoder enc c (roots_of c) v
          in
          Alcotest.(check string) "opt = naive" (hex opt) (hex naive);
          Alcotest.(check string) "opt = interp" (hex opt) (hex interp);
          let dec =
            Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:c.named
              (droots_of c)
          in
          let out = dec (Mbuf.reader_of_bytes (Bytes.of_string opt)) in
          Alcotest.(check bool) "roundtrip" true (Value.equal v out.(0))))
    Encoding.all

(* -- message roots (operation discriminators) ------------------------ *)

let root_tests =
  [
    Alcotest.test_case "string-keyed request roots round trip" `Quick (fun () ->
        let c = gen_case (Random.State.make [| 1 |]) in
        let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
        let roots = Plan_compile.Rconst_str "read_dir" :: roots_of c in
        let droots = Stub_opt.Dconst_str "read_dir" :: droots_of c in
        List.iter
          (fun enc ->
            let opt = encode_with opt_encoder enc c roots v in
            let naive =
              encode_with
                (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
                enc c roots v
            in
            Alcotest.(check string)
              (enc.Encoding.name ^ " bytes") (hex opt) (hex naive);
            let dec =
              Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:c.named droots
            in
            let out = dec (Mbuf.reader_of_bytes (Bytes.of_string opt)) in
            Alcotest.(check bool)
              (enc.Encoding.name ^ " roundtrip")
              true
              (Value.equal v out.(0)))
          Encoding.all);
    Alcotest.test_case "integer-keyed request roots round trip" `Quick
      (fun () ->
        let c = gen_case (Random.State.make [| 2 |]) in
        let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
        let kind = Encoding.Kint { bits = 32; signed = false } in
        let roots = Plan_compile.Rconst_int (7L, kind) :: roots_of c in
        let droots = Stub_opt.Dconst_int (7L, kind) :: droots_of c in
        List.iter
          (fun enc ->
            let bytes = encode_with opt_encoder enc c roots v in
            let dec =
              Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:c.named droots
            in
            let out = dec (Mbuf.reader_of_bytes (Bytes.of_string bytes)) in
            Alcotest.(check bool)
              (enc.Encoding.name ^ " roundtrip")
              true
              (Value.equal v out.(0));
            (* a wrong discriminator must be rejected *)
            let bad_droots = Stub_opt.Dconst_int (8L, kind) :: droots_of c in
            let bad_dec =
              Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:c.named
                bad_droots
            in
            match bad_dec (Mbuf.reader_of_bytes (Bytes.of_string bytes)) with
            | _ -> Alcotest.fail "expected a decode error"
            | exception Codec.Decode_error _ -> ())
          Encoding.all);
  ]

(* -- failure injection ------------------------------------------------ *)

let failure_tests =
  [
    Alcotest.test_case "truncated buffers raise Short_buffer" `Quick (fun () ->
        let c = gen_case (Random.State.make [| 3 |]) in
        let v = Workload.random rng c.mint ~named:c.named c.idx c.pres in
        let enc = Encoding.cdr in
        let bytes = encode_with opt_encoder enc c (roots_of c) v in
        let dec =
          Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:c.named (droots_of c)
        in
        let n = String.length bytes in
        (* every strict prefix must fail cleanly, never crash or succeed *)
        for cut = 0 to n - 1 do
          let r =
            Mbuf.reader_of_bytes (Bytes.of_string (String.sub bytes 0 cut))
          in
          match dec r with
          | _ -> ()
          (* some prefixes decode if the value has a shorter valid form;
             that is acceptable only when trailing data was an array tail *)
          | exception Mbuf.Short_buffer -> ()
          | exception Codec.Decode_error _ -> ()
        done);
    Alcotest.test_case "oversized sequence length is rejected" `Quick (fun () ->
        let mint = Mint.create () in
        let seq = Mint.array mint ~elem:(Mint.int32 mint) ~min_len:0 ~max_len:(Some 4) in
        let pres =
          Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = Pres.Direct }
        in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 64 in
        Mbuf.put_i32 buf ~be:true 5 (* claims 5 > bound 4 *);
        for i = 1 to 5 do
          Mbuf.put_i32 buf ~be:true i
        done;
        let dec =
          Stub_opt.compile_decoder ~enc ~mint ~named:[]
            [ Stub_opt.Dvalue (seq, pres) ]
        in
        match dec (Mbuf.reader buf) with
        | _ -> Alcotest.fail "expected a decode error"
        | exception Codec.Decode_error _ -> ());
    Alcotest.test_case "invalid boolean is rejected" `Quick (fun () ->
        let mint = Mint.create () in
        let b = Mint.bool_ mint in
        let enc = Encoding.cdr in
        let buf = Mbuf.create 4 in
        Mbuf.put_u8 buf 7;
        let dec =
          Stub_opt.compile_decoder ~enc ~mint ~named:[]
            [ Stub_opt.Dvalue (b, Pres.Direct) ]
        in
        match dec (Mbuf.reader buf) with
        | _ -> Alcotest.fail "expected a decode error"
        | exception Codec.Decode_error _ -> ());
    Alcotest.test_case "invalid optional count is rejected" `Quick (fun () ->
        let mint = Mint.create () in
        let opt = Mint.array mint ~elem:(Mint.int32 mint) ~min_len:0 ~max_len:(Some 1) in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 8 in
        Mbuf.put_i32 buf ~be:true 2;
        Mbuf.put_i32 buf ~be:true 42;
        let dec =
          Stub_opt.compile_decoder ~enc ~mint ~named:[]
            [ Stub_opt.Dvalue (opt, Pres.Opt_ptr Pres.Direct) ]
        in
        match dec (Mbuf.reader buf) with
        | _ -> Alcotest.fail "expected a decode error"
        | exception Codec.Decode_error _ -> ());
  ]

(* -- chunk regrouping: every field-run base ---------------------------- *)

(* One message with every kind of chunk part: two adjacent constant
   roots, then a struct of a 3-element i32 array and two i32 fields. *)
let regroup_message () =
  let mint = Mint.create () in
  let i32 = Mint.int32 mint in
  let arr = Mint.fixed_array mint ~elem:i32 ~len:3 in
  let idx = Mint.struct_ mint [ ("a", arr); ("x", i32); ("y", i32) ] in
  let pres =
    Pres.Struct
      [
        ("a", Pres.Fixed_array Pres.Direct);
        ("x", Pres.Direct);
        ("y", Pres.Direct);
      ]
  in
  let c = { label = "regroup"; mint; named = []; idx; pres } in
  let kind = Encoding.Kint { bits = 32; signed = false } in
  let roots =
    Plan_compile.Rconst_int (7L, kind)
    :: Plan_compile.Rconst_int (9L, kind)
    :: roots_of c
  in
  let droots =
    Stub_opt.Dconst_int (7L, kind)
    :: Stub_opt.Dconst_int (9L, kind)
    :: droots_of c
  in
  (c, roots, droots)

let regroup_value a = Value.Vstruct [| a; Value.Vint 5; Value.Vint (-6) |]
let regroup_canonical = regroup_value (Value.Vint_array [| 1; 2; 3 |])

let fixed_encoding_tests name f =
  List.filter_map
    (fun (enc : Encoding.t) ->
      if enc.Encoding.var <> None then None
      else
        Some
          (Alcotest.test_case (enc.Encoding.name ^ ": " ^ name) `Quick (fun () ->
               f enc)))
    Encoding.all

(* The property tests above run the serving executor on every call, and
   their random cases reach field runs over [Vstruct] and [Vint_array]
   bases and multi-constant images.  Workload never boxes an int array
   ([Varray] of [Vint]) or hands a byte string where 32-bit fields are
   read ([Vbytes]), so those two bases get one explicit input each: the
   same message built over each base must encode to the naive engine's
   bytes for the canonical value, and decode back to that value.  The
   two adjacent constant roots fold into one image. *)
let regroup_base_tests =
  fixed_encoding_tests "field runs over every aggregate base" (fun enc ->
      let c, roots, droots = regroup_message () in
      let naive =
        encode_with
          (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
          enc c roots regroup_canonical
      in
      List.iter
        (fun (base, a) ->
          Alcotest.(check string)
            (base ^ " base encodes to the naive bytes")
            (hex naive)
            (hex (encode_with opt_encoder enc c roots (regroup_value a))))
        [
          ("Vint_array", Value.Vint_array [| 1; 2; 3 |]);
          ("Varray", Value.Varray [| Value.Vint 1; Value.Vint 2; Value.Vint 3 |]);
          ("Vbytes", Value.Vbytes (Bytes.of_string "\001\002\003"));
        ];
      let dec = Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:[] droots in
      let out = dec (Mbuf.reader_of_bytes (Bytes.of_string naive)) in
      Alcotest.(check bool) "roundtrip" true
        (Value.equal regroup_canonical out.(0)))

(* The decode twin: the same message decodes through grouped 32-bit
   loads behind one chunk check.  Every proper prefix must raise
   Short_buffer, and every single flipped bit must fail or decode
   exactly as the naive engine does (a flipped constant root fails, a
   flipped field decodes to the same changed value). *)
let regroup_failure_tests =
  fixed_encoding_tests "grouped loads fail like naive on every cut and flip"
    (fun enc ->
      let c, roots, droots = regroup_message () in
      let wire =
        Bytes.of_string
          (encode_with
             (Stub_naive.compile_encoder ~config:Stub_naive.default_config)
             enc c roots regroup_canonical)
      in
      let dec = Stub_opt.compile_decoder ~enc ~mint:c.mint ~named:[] droots
      and naive =
        Stub_naive.compile_decoder ~config:Stub_naive.default_config ~enc
          ~mint:c.mint ~named:[] droots
      in
      let run d input =
        match d (Mbuf.reader_of_bytes input) with
        | out -> Ok out.(0)
        | exception Mbuf.Short_buffer -> Error "Short_buffer"
        | exception Codec.Decode_error _ -> Error "Decode_error"
      in
      let n = Bytes.length wire in
      for cut = 0 to n - 1 do
        match run dec (Bytes.sub wire 0 cut) with
        | Error "Short_buffer" -> ()
        | Ok _ | Error _ ->
            Alcotest.failf "prefix of %d/%d bytes did not raise Short_buffer"
              cut n
      done;
      for at = 0 to n - 1 do
        for bit = 0 to 7 do
          let corrupt = Bytes.copy wire in
          Bytes.set corrupt at
            (Char.chr (Char.code (Bytes.get corrupt at) lxor (1 lsl bit)));
          match (run dec corrupt, run naive corrupt) with
          | Ok a, Ok b when Value.equal a b -> ()
          | Error a, Error b when a = b -> ()
          | _, _ ->
              Alcotest.failf "bit %d of byte %d: optimized and naive differ"
                bit at
        done
      done)

let suite =
  [
    ("engines:properties", property_tests);
    ("engines:regroup", regroup_base_tests @ regroup_failure_tests);
    ("engines:recursive", recursive_tests);
    ("engines:roots", root_tests);
    ("engines:failures", failure_tests);
  ]
