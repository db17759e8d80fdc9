(* Differential pinning of the plan-driven decoder (Dplan_compile +
   Stub_opt.decoder_of_dplan) against the paper's two baseline engines:
   the rpcgen-style engine (Stub_naive) and the interpretive engine
   (Stub_interp).

   For >= 1000 random (MINT, PRES) cases per paper encoding:

   1. all three decoders recover the encoded value (Value.equal, which
      also equates a zero-copy view with its copied form);
   2. with scatter-gather views on and the borrow threshold dropped to
      3 bytes, the view decode equals the copy decode, and
      materializing it yields an owned value that still compares equal.

   A second property pins the plan decoder's failures against the
   rpcgen-style engine: every proper prefix and a few flipped bits
   (malformed union discriminators, bad booleans, oversized counts, ...)
   fail in both or decode the same value in both (a merged chunk check
   may surface Short_buffer *earlier* than the per-datum path, but never
   changes the outcome).

   A third suite feeds each engine element counts far beyond the bytes
   that follow them: every engine must raise Short_buffer before it
   allocates the element array.

   Unit tests below pin the specifics: Short_buffer injection mid-chunk,
   sub-word atom arrays extending like scalar loads, self-describing
   atom arrays kept out of hoisted loop reservations, an unknown
   discriminator on a default-less union, the wire offset in
   the Opt_ptr error, zero-copy accounting on a large payload, and the
   decoder/plan cache hit rates on warm compilations. *)

let rng = Random.State.make [| 0xdec0de |]

let naive_config = Stub_naive.default_config

let encode enc (c : Test_engines.case) v =
  Test_engines.encode_with Test_engines.opt_encoder enc c
    (Test_engines.roots_of c) v

let decoders enc (c : Test_engines.case) =
  let droots = Test_engines.droots_of c in
  ( Stub_opt.compile_decoder ~enc ~mint:c.Test_engines.mint
      ~named:c.Test_engines.named droots,
    Stub_naive.compile_decoder ~config:naive_config ~enc
      ~mint:c.Test_engines.mint ~named:c.Test_engines.named droots,
    Stub_interp.compile_decoder ~enc ~mint:c.Test_engines.mint
      ~named:c.Test_engines.named droots )

type outcome = Ok_value of Value.t | Failed

let run_decoder (d : Stub_opt.decoder) (wire : bytes) : outcome =
  match d (Mbuf.reader_of_bytes wire) with
  | [| v |] -> Ok_value v
  | _ -> Failed
  | exception (Mbuf.Short_buffer | Codec.Decode_error _) -> Failed

let same_outcome a b =
  match (a, b) with
  | Ok_value x, Ok_value y -> Value.equal x y
  | Failed, Failed -> true
  | Ok_value _, Failed | Failed, Ok_value _ -> false

let pp_outcome fmt = function
  | Ok_value v -> Format.fprintf fmt "ok %a" Value.pp v
  | Failed -> Format.pp_print_string fmt "failed"

let decode_prop enc (c : Test_engines.case) =
  let v =
    Workload.random rng c.Test_engines.mint ~named:c.Test_engines.named
      c.Test_engines.idx c.Test_engines.pres
  in
  let wire = Bytes.of_string (encode enc c v) in
  let dec_plan, dec_naive, dec_interp = decoders enc c in
  (* 1. three-way agreement on well-formed input *)
  let v_plan =
    match run_decoder dec_plan wire with
    | Ok_value v' -> v'
    | Failed ->
        QCheck.Test.fail_reportf "plan decode failed on %s"
          c.Test_engines.label
  in
  if not (Value.equal v_plan v) then
    QCheck.Test.fail_reportf "plan decode mismatch on %s:@.%a@.%a"
      c.Test_engines.label Value.pp v Value.pp v_plan;
  List.iter
    (fun (name, d) ->
      match run_decoder d wire with
      | Ok_value v' when Value.equal v' v_plan -> ()
      | out ->
          QCheck.Test.fail_reportf "plan/%s decode disagree on %s: %a"
            name c.Test_engines.label pp_outcome out)
    [ ("naive", dec_naive); ("interp", dec_interp) ];
  (* 2. zero-copy views equal the copy decode, before and after
        materialization *)
  Test_sgwire.with_sg ~on:true ~threshold:3 (fun () ->
      let dec_view =
        Stub_opt.compile_decoder ~enc ~mint:c.Test_engines.mint
          ~named:c.Test_engines.named ~views:true (Test_engines.droots_of c)
      in
      match run_decoder dec_view wire with
      | Failed ->
          QCheck.Test.fail_reportf "view decode failed on %s"
            c.Test_engines.label
      | Ok_value vv ->
          if not (Value.equal vv v_plan) then
            QCheck.Test.fail_reportf "view/copy decode mismatch on %s:@.%a@.%a"
              c.Test_engines.label Value.pp v_plan Value.pp vv;
          if not (Value.equal (Value.materialize vv) v_plan) then
            QCheck.Test.fail_reportf "materialized view mismatch on %s"
              c.Test_engines.label);
  true

let qtest enc =
  let name = enc.Encoding.name ^ ": plan decode = naive = interp" in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000 ~name Test_engines.arbitrary_case
       (decode_prop enc))

let property_tests =
  List.map qtest
    [
      Encoding.xdr; Encoding.cdr; Encoding.mach3; Encoding.fluke;
      (* the value-dependent formats run the same 1000-case
         differential as the fixed layouts *)
      Encoding.msgpack; Encoding.cbor;
    ]

(* -- failure parity against the rpcgen-style engine --------------------- *)

(* The plan decoder is the only serving decoder, so its failure behaviour
   is pinned against Stub_naive directly: every proper prefix of the
   message and a few flipped bits must fail in both, or decode the same
   value in both.  The value-dependent formats run it too: variable
   headers must truncate and corrupt with the same typed failures as the
   fixed layouts. *)
let naive_parity_prop enc (c : Test_engines.case) =
  let v =
    Workload.random rng c.Test_engines.mint ~named:c.Test_engines.named
      c.Test_engines.idx c.Test_engines.pres
  in
  let wire = Bytes.of_string (encode enc c v) in
  let droots = Test_engines.droots_of c in
  let dec_plan =
    Stub_opt.compile_decoder ~enc ~mint:c.Test_engines.mint
      ~named:c.Test_engines.named droots
  and dec_naive =
    Stub_naive.compile_decoder ~config:naive_config ~enc
      ~mint:c.Test_engines.mint ~named:c.Test_engines.named droots
  in
  let agree what input =
    let a = run_decoder dec_plan input and b = run_decoder dec_naive input in
    if not (same_outcome a b) then
      QCheck.Test.fail_reportf "%s disagrees on %s: plan %a, naive %a" what
        c.Test_engines.label pp_outcome a pp_outcome b
  in
  let n = Bytes.length wire in
  for cut = 0 to n - 1 do
    agree (Printf.sprintf "truncation at %d/%d" cut n) (Bytes.sub wire 0 cut)
  done;
  if n > 0 then
    for _ = 1 to 4 do
      let corrupt = Bytes.copy wire in
      let at = Random.State.int rng n and bit = Random.State.int rng 8 in
      Bytes.set corrupt at
        (Char.chr (Char.code (Bytes.get corrupt at) lxor (1 lsl bit)));
      agree (Printf.sprintf "bit %d of byte %d flipped" bit at) corrupt
    done;
  true

let naive_parity_tests =
  List.map
    (fun enc ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make ~count:500
           ~name:(enc.Encoding.name ^ ": plan decode fails like naive")
           Test_engines.arbitrary_case (naive_parity_prop enc)))
    Encoding.all

(* -- targeted failure injection --------------------------------------- *)

let int4_struct () =
  let mint = Mint.create () in
  let i32 = Mint.int32 mint in
  let idx =
    Mint.struct_ mint [ ("a", i32); ("b", i32); ("c", i32); ("d", i32) ]
  in
  let pres =
    Pres.Struct
      [ ("a", Pres.Direct); ("b", Pres.Direct); ("c", Pres.Direct);
        ("d", Pres.Direct) ]
  in
  (mint, idx, pres)

let failure_tests =
  [
    Alcotest.test_case "Short_buffer mid-chunk: plan and naive both fail"
      `Quick (fun () ->
        (* four int32 fields compile to ONE chunk with one 16-byte
           check; cutting at byte 6 lands inside it *)
        let mint, idx, pres = int4_struct () in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 32 in
        for i = 1 to 4 do
          Mbuf.put_i32 buf ~be:true (i * 7)
        done;
        let wire = Bytes.sub (Mbuf.contents buf) 0 6 in
        let droots = [ Stub_opt.Dvalue (idx, pres) ] in
        let dec_plan = Stub_opt.compile_decoder ~enc ~mint ~named:[] droots in
        let dec_naive =
          Stub_naive.compile_decoder ~config:naive_config ~enc ~mint ~named:[]
            droots
        in
        (match dec_plan (Mbuf.reader_of_bytes wire) with
        | _ -> Alcotest.fail "plan decoded a truncated chunk"
        | exception Mbuf.Short_buffer -> ());
        match dec_naive (Mbuf.reader_of_bytes wire) with
        | _ -> Alcotest.fail "naive decoded a truncated chunk"
        | exception Mbuf.Short_buffer -> ());
    Alcotest.test_case "sub-word atom arrays extend like scalar loads" `Quick
      (fun () ->
        (* xdr carries an i16 in a full word; words whose upper half
           disagrees with bit 15 must come back exactly as Codec.read_at
           extends a lone i16 (sign-extended from bit 15), not as the
           raw 32-bit word *)
        let mint = Mint.create () in
        let i16 = Mint.int_ mint ~bits:16 ~signed:true in
        let u16 = Mint.int_ mint ~bits:16 ~signed:false in
        let a = Mint.fixed_array mint ~elem:i16 ~len:3 in
        let b = Mint.array mint ~elem:u16 ~min_len:0 ~max_len:(Some 4) in
        let droots =
          [
            Stub_opt.Dvalue (a, Pres.Fixed_array Pres.Direct);
            Stub_opt.Dvalue
              ( b,
                Pres.Counted_seq
                  { len_field = "len"; buf_field = "val"; elem = Pres.Direct }
              );
          ]
        in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 32 in
        List.iter (Mbuf.put_i32 buf ~be:true)
          [ 0x00018000; 0x7fff0001; -1; 2; 0x12345678; -2 ];
        let wire = Mbuf.contents buf in
        let expect =
          [|
            Value.Vint_array [| -32768; 1; -1 |];
            Value.Vint_array [| 0x5678; 0xfffe |];
          |]
        in
        List.iter
          (fun (name, d) ->
            let out = d (Mbuf.reader_of_bytes wire) in
            Array.iteri
              (fun i v ->
                if not (Value.equal v out.(i)) then
                  Alcotest.failf "%s root %d: expected %a, got %a" name i
                    Value.pp v Value.pp out.(i))
              expect)
          [
            ("plan", Stub_opt.compile_decoder ~enc ~mint ~named:[] droots);
            ( "naive",
              Stub_naive.compile_decoder ~config:naive_config ~enc ~mint
                ~named:[] droots );
            ("interp", Stub_interp.compile_decoder ~enc ~mint ~named:[] droots);
          ]);
    Alcotest.test_case "headed atom arrays never ride a hoisted reservation"
      `Quick (fun () ->
        (* msgpack heads every float with a tag byte, so a fixed loop
           over [3]f64 + one raw byte advances 3*9+1 bytes, not the
           3*8+1 its atom sizes add up to: the loop must keep its
           per-iteration checks, and a message missing its last byte
           must fail with Short_buffer *)
        let mint = Mint.create () in
        let f64 = Mint.float_ mint ~bits:64 in
        let st =
          Mint.struct_ mint
            [
              ("f", Mint.fixed_array mint ~elem:f64 ~len:3);
              ("c", Mint.fixed_array mint ~elem:(Mint.char8 mint) ~len:1);
            ]
        in
        let idx = Mint.fixed_array mint ~elem:st ~len:2 in
        let pres =
          Pres.Fixed_array
            (Pres.Struct
               [
                 ("f", Pres.Fixed_array Pres.Direct);
                 ("c", Pres.Fixed_array Pres.Direct);
               ])
        in
        let enc = Encoding.msgpack in
        let dplan =
          Plan_cache.dplan ~enc ~mint ~named:[]
            [ Dplan_compile.Dvalue (idx, pres) ]
        in
        (match dplan.Dplan.d_ops with
        | [ Dplan.D_loop { ensure = None; _ } ] -> ()
        | _ ->
            Alcotest.failf "expected one unhoisted loop:@.%a" Dplan.pp_plan
              dplan);
        Alcotest.(check bool) "plan verifies" true
          (Plan_verify.check_dplan dplan = Ok ());
        let c =
          { Test_engines.label = "headed"; mint; named = []; idx; pres }
        in
        let elem x =
          Value.Vstruct
            [|
              Value.Varray [| Value.Vfloat x; Value.Vfloat 2.5; Value.Vfloat (-.x) |];
              Value.Vbytes (Bytes.of_string "z");
            |]
        in
        let v = Value.Varray [| elem 1.25; elem 7.0 |] in
        let wire = Bytes.of_string (encode enc c v) in
        Alcotest.(check int) "wire length" 56 (Bytes.length wire);
        let dec =
          Stub_opt.compile_decoder ~enc ~mint ~named:[]
            [ Stub_opt.Dvalue (idx, pres) ]
        in
        (match run_decoder dec wire with
        | Ok_value v' ->
            Alcotest.(check bool) "round trip" true (Value.equal v v')
        | Failed -> Alcotest.fail "well-formed message rejected");
        match dec (Mbuf.reader_of_bytes (Bytes.sub wire 0 55)) with
        | _ -> Alcotest.fail "decoded a message missing its last byte"
        | exception Mbuf.Short_buffer -> ());
    Alcotest.test_case "unknown union discriminator is rejected by every engine"
      `Quick (fun () ->
        let mint = Mint.create () in
        let discrim = Mint.int32 mint in
        let idx =
          Mint.union mint ~discrim
            ~cases:
              [
                { Mint.c_const = Mint.Cint 0L; c_body = Mint.int32 mint };
                { Mint.c_const = Mint.Cint 1L; c_body = Mint.bool_ mint };
              ]
            ~default:None
        in
        let pres =
          Pres.Union
            {
              discrim_field = "_d";
              union_field = "_u";
              arms = [ ("a0", Pres.Direct); ("a1", Pres.Direct) ];
              default_arm = None;
            }
        in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 16 in
        Mbuf.put_i32 buf ~be:true 999 (* no such arm *);
        Mbuf.put_i32 buf ~be:true 42;
        let wire = Mbuf.contents buf in
        let droots = [ Stub_opt.Dvalue (idx, pres) ] in
        List.iter
          (fun (name, d) ->
            match d (Mbuf.reader_of_bytes wire) with
            | (_ : Value.t array) ->
                Alcotest.fail (name ^ " accepted an unknown discriminator")
            | exception Codec.Decode_error _ -> ())
          [
            ("plan", Stub_opt.compile_decoder ~enc ~mint ~named:[] droots);
            ("naive", Stub_naive.compile_decoder ~config:naive_config ~enc ~mint ~named:[] droots);
            ("interp", Stub_interp.compile_decoder ~enc ~mint ~named:[] droots);
          ]);
    Alcotest.test_case "Opt_ptr error carries the wire offset" `Quick
      (fun () ->
        (* an int32 ahead of the optional puts its count word at byte 4 *)
        let mint = Mint.create () in
        let i32 = Mint.int32 mint in
        let opt =
          Mint.array mint ~elem:i32 ~min_len:0 ~max_len:(Some 1)
        in
        let enc = Encoding.xdr in
        let buf = Mbuf.create 16 in
        Mbuf.put_i32 buf ~be:true 5;
        Mbuf.put_i32 buf ~be:true 2 (* invalid count *);
        let wire = Mbuf.contents buf in
        let droots =
          [
            Stub_opt.Dvalue (i32, Pres.Direct);
            Stub_opt.Dvalue (opt, Pres.Opt_ptr Pres.Direct);
          ]
        in
        let expect_offset name d =
          match d (Mbuf.reader_of_bytes wire) with
          | (_ : Value.t array) ->
              Alcotest.fail (name ^ " accepted an invalid optional count")
          | exception Codec.Decode_error msg ->
              Alcotest.(check string)
                (name ^ " message")
                "optional count 2 at byte 4" msg
        in
        expect_offset "plan"
          (Stub_opt.compile_decoder ~enc ~mint ~named:[] droots);
        expect_offset "naive"
          (Stub_naive.compile_decoder ~config:naive_config ~enc ~mint
             ~named:[] droots);
        expect_offset "interp"
          (Stub_interp.compile_decoder ~enc ~mint ~named:[] droots));
  ]

(* -- count admission ---------------------------------------------------- *)

(* A header announcing 10^6 elements with no payload behind it: each
   engine must raise Short_buffer from the count alone, before it
   allocates the 8 MB element array the count asks for. *)
let hostile_count = 1_000_000

let hostile_seq ~bits =
  let mint = Mint.create () in
  let elem = Mint.int_ mint ~bits ~signed:true in
  let idx = Mint.array mint ~elem ~min_len:0 ~max_len:None in
  let pres =
    Pres.Counted_seq { len_field = "len"; buf_field = "val"; elem = Pres.Direct }
  in
  (mint, idx, pres)

let hostile_header (enc : Encoding.t) =
  let buf = Mbuf.create 8 in
  (match enc.Encoding.var with
  | Some vcc -> Codec.write_vlen vcc ~check:true Encoding.Larr buf hostile_count
  | None -> Mbuf.put_i32 buf ~be:enc.Encoding.big_endian hostile_count);
  Mbuf.contents buf

(* Run [f], which must raise Short_buffer, allocating less than 64 KiB
   on the way.  A full major collection first leaves no collection work
   pending that could land inside the measured window. *)
let short_and_small what f =
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  (match f () with
  | () -> Alcotest.failf "%s: accepted a count with no payload" what
  | exception Mbuf.Short_buffer -> ());
  let grown = Gc.allocated_bytes () -. before in
  if grown >= 65536. then
    Alcotest.failf "%s: allocated %.0f bytes before rejecting the count" what
      grown

let admission_tests =
  [
    Alcotest.test_case "hostile counts are rejected before allocation" `Quick
      (fun () ->
        List.iter
          (fun (enc, bits, header) ->
            let mint, idx, pres = hostile_seq ~bits in
            let droots = [ Stub_opt.Dvalue (idx, pres) ] in
            let wire = hostile_header enc in
            Alcotest.(check string)
              (enc.Encoding.name ^ " header bytes") header
              (String.concat " "
                 (List.map
                    (fun c -> Printf.sprintf "%02x" (Char.code c))
                    (List.of_seq (Bytes.to_seq wire))));
            List.iter
              (fun (engine, (d : Stub_opt.decoder)) ->
                short_and_small
                  (Printf.sprintf "%s %s sequence<int%d>" engine
                     enc.Encoding.name bits)
                  (fun () -> ignore (d (Mbuf.reader_of_bytes wire))))
              [
                ("plan", Stub_opt.compile_decoder ~enc ~mint ~named:[] droots);
                ( "naive",
                  Stub_naive.compile_decoder ~config:naive_config ~enc ~mint
                    ~named:[] droots );
                ("interp", Stub_interp.compile_decoder ~enc ~mint ~named:[] droots);
              ])
          [
            (Encoding.msgpack, 32, "dd 00 0f 42 40");
            (Encoding.cbor, 32, "9a 00 0f 42 40");
            (Encoding.xdr, 64, "00 0f 42 40");
            (Encoding.cdr, 16, "00 0f 42 40");
          ]);
    Alcotest.test_case "the cdr->xdr relay rejects a hostile count before \
                        allocation" `Quick (fun () ->
        let mint, idx, pres = hostile_seq ~bits:16 in
        let fwd =
          Stub_forward.compile_forward ~src:Encoding.cdr ~dst:Encoding.xdr
            ~mint ~named:[]
            [ Stub_opt.Dvalue (idx, pres) ]
            [
              Plan_compile.Rvalue
                (Mplan.Rparam { index = 0; name = "p"; deref = false }, idx, pres);
            ]
        in
        let wire = hostile_header Encoding.cdr in
        let out = Mbuf.create 64 in
        short_and_small "cdr->xdr relay of sequence<int16>" (fun () ->
            fwd (Mbuf.reader_of_bytes wire) out));
    Alcotest.test_case "hostile struct counts are rejected before allocation"
      `Quick (fun () ->
        (* struct elements decode through a per-element loop, not an
           atom-array read: the count is admitted at the struct's
           minimum wire width *)
        List.iter
          (fun (enc, nfields, header) ->
            let mint = Mint.create () in
            let long = Mint.int32 mint in
            let fields = List.init nfields (fun i -> (Printf.sprintf "f%d" i, long)) in
            let elem = Mint.struct_ mint fields in
            let idx = Mint.array mint ~elem ~min_len:0 ~max_len:None in
            let pres =
              Pres.Counted_seq
                {
                  len_field = "len";
                  buf_field = "val";
                  elem = Pres.Struct (List.map (fun (f, _) -> (f, Pres.Direct)) fields);
                }
            in
            let droots = [ Stub_opt.Dvalue (idx, pres) ] in
            let wire = hostile_header enc in
            Alcotest.(check string)
              (enc.Encoding.name ^ " header bytes") header
              (String.concat " "
                 (List.map
                    (fun c -> Printf.sprintf "%02x" (Char.code c))
                    (List.of_seq (Bytes.to_seq wire))));
            List.iter
              (fun (engine, (d : Stub_opt.decoder)) ->
                short_and_small
                  (Printf.sprintf "%s %s sequence<struct of %d longs>" engine
                     enc.Encoding.name nfields)
                  (fun () -> ignore (d (Mbuf.reader_of_bytes wire))))
              [
                ("plan", Stub_opt.compile_decoder ~enc ~mint ~named:[] droots);
                ( "naive",
                  Stub_naive.compile_decoder ~config:naive_config ~enc ~mint
                    ~named:[] droots );
                ("interp", Stub_interp.compile_decoder ~enc ~mint ~named:[] droots);
              ])
          [
            (Encoding.msgpack, 4, "dd 00 0f 42 40");
            (Encoding.cbor, 4, "9a 00 0f 42 40");
            (Encoding.xdr, 1, "00 0f 42 40");
          ]);
  ]

(* -- zero-copy accounting --------------------------------------------- *)

let view_tests =
  [
    Alcotest.test_case "large payload decodes as a view, copying nothing"
      `Quick (fun () ->
        Test_sgwire.with_sg ~on:true ~threshold:64 (fun () ->
            let mint = Mint.create () in
            let str = Mint.string_ mint ~max_len:None in
            let enc = Encoding.xdr in
            let payload = String.make 1024 'x' in
            let droots = [ Stub_opt.Dvalue (str, Pres.Terminated_string) ] in
            let buf = Mbuf.create 2048 in
            Stub_opt.compile_encoder ~enc ~mint ~named:[]
              [
                Plan_compile.Rvalue
                  ( Mplan.Rparam { index = 0; name = "p"; deref = false },
                    str, Pres.Terminated_string );
              ]
              buf
              [| Value.Vstring payload |];
            let wire = Mbuf.contents buf in
            let dec_view =
              Stub_opt.compile_decoder ~enc ~mint ~named:[] ~views:true droots
            in
            Mbuf.reset_reader_stats ();
            let out = dec_view (Mbuf.reader_of_bytes wire) in
            let st = Mbuf.reader_stats () in
            Alcotest.(check int) "payload bytes copied" 0 st.Mbuf.rbytes_copied;
            Alcotest.(check bool)
              "payload bytes viewed" true
              (st.Mbuf.rbytes_viewed >= 1024);
            (match out.(0) with
            | Value.Vstring_view v ->
                Alcotest.(check string)
                  "view contents" payload (Value.string_of_view v)
            | _ -> Alcotest.fail "expected a Vstring_view");
            match Value.materialize out.(0) with
            | Value.Vstring s ->
                Alcotest.(check string) "materialized contents" payload s
            | _ -> Alcotest.fail "materialize did not yield an owned string"));
  ]

(* -- decoder cache ----------------------------------------------------- *)

let cache_tests =
  [
    Alcotest.test_case "warm decoder compilations hit both caches" `Quick
      (fun () ->
        Plan_cache.reset_all ();
        let mint, idx, pres = int4_struct () in
        let droots = [ Stub_opt.Dvalue (idx, pres) ] in
        for _ = 1 to 10 do
          ignore
            (Stub_opt.compile_decoder ~enc:Encoding.xdr ~mint ~named:[] droots
              : Stub_opt.decoder)
        done;
        (* the plan cache sits behind the decoder-closure cache, so hit
           it directly as dump-plan and the C back ends do *)
        for _ = 1 to 10 do
          ignore
            (Plan_cache.dplan ~enc:Encoding.xdr ~mint ~named:[]
               [ Dplan_compile.Dvalue (idx, pres) ]
              : Dplan.plan)
        done;
        let stats name =
          match List.assoc_opt name (Plan_cache.all_stats ()) with
          | Some st -> st
          | None -> Alcotest.fail ("no cache registered under " ^ name)
        in
        let dec = stats "stub_opt.decoder" in
        Alcotest.(check int) "decoder misses" 1 dec.Plan_cache.misses;
        Alcotest.(check int) "decoder hits" 9 dec.Plan_cache.hits;
        let dp = stats "dplan" in
        (* one miss from the decoder compilation, then 10 direct hits *)
        Alcotest.(check int) "dplan misses" 1 dp.Plan_cache.misses;
        Alcotest.(check int) "dplan hits" 10 dp.Plan_cache.hits);
  ]

let suite =
  [
    ("decplan:differential", property_tests);
    ("decplan:naive-parity", naive_parity_tests);
    ("decplan:failures", failure_tests);
    ("decplan:admission", admission_tests);
    ("decplan:views", view_tests);
    ("decplan:cache", cache_tests);
  ]
