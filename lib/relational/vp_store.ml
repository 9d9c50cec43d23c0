open Rapida_rdf

module Term_tbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = Term.equal
  let hash = Term.hash
end)

type t = {
  props : Table.t Term_tbl.t;  (** property term -> (s, o) table *)
  types : Table.t Term_tbl.t;  (** class term -> (s) table *)
}

let local_name term =
  let s = Term.lexical term in
  match String.rindex_opt s '/' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> (
    match String.rindex_opt s '#' with
    | Some i -> String.sub s (i + 1) (String.length s - i - 1)
    | None -> s)

let of_graph g =
  let props = Term_tbl.create 32 in
  let types = Term_tbl.create 8 in
  let prop_rows : Triple.t list ref Term_tbl.t = Term_tbl.create 32 in
  let type_rows : Triple.t list ref Term_tbl.t = Term_tbl.create 8 in
  List.iter
    (fun (t : Triple.t) ->
      if Term.equal t.p Namespace.rdf_type then
        match Term_tbl.find_opt type_rows t.o with
        | Some cell -> cell := t :: !cell
        | None -> Term_tbl.add type_rows t.o (ref [ t ])
      else
        match Term_tbl.find_opt prop_rows t.p with
        | Some cell -> cell := t :: !cell
        | None -> Term_tbl.add prop_rows t.p (ref [ t ]))
    (Graph.triples g);
  Term_tbl.iter
    (fun p cell ->
      let rows =
        List.rev_map (fun (t : Triple.t) -> [| Some t.s; Some t.o |]) !cell
      in
      Term_tbl.add props p
        (Table.make ~name:("vp_" ^ local_name p) ~schema:[ "s"; "o" ] rows))
    prop_rows;
  Term_tbl.iter
    (fun cls cell ->
      let rows = List.rev_map (fun (t : Triple.t) -> [| Some t.s |]) !cell in
      Term_tbl.add types cls
        (Table.make ~name:("type_" ^ local_name cls) ~schema:[ "s" ] rows))
    type_rows;
  { props; types }

let property_table store p =
  match Term_tbl.find_opt store.props p with
  | Some t -> t
  | None -> Table.make ~name:("vp_" ^ local_name p) ~schema:[ "s"; "o" ] []

let type_table store cls =
  match Term_tbl.find_opt store.types cls with
  | Some t -> t
  | None -> Table.make ~name:("type_" ^ local_name cls) ~schema:[ "s" ] []

let bindings tbl = Term_tbl.fold (fun k t acc -> (k, t) :: acc) tbl []
let property_partitions store = bindings store.props
let type_partitions store = bindings store.types
let partitions store = property_partitions store @ type_partitions store

let stats store =
  List.fold_left
    (fun (n, bytes) (_, t) -> (n + 1, bytes + Table.size_bytes t))
    (0, 0) (partitions store)

let pp ppf store =
  let n, bytes = stats store in
  Fmt.pf ppf "vp-store: %d partitions, %d bytes" n bytes
