// particlefilter — 38 nodes; one of the 17 suite kernels (monomap_frontend::suite).
// Its canonical digest is pinned in tests/frontend_corpus.rs.
kernel particlefilter {
  i32[] mem;
  i32 n0 = in(0);
  i32 n1 = in(1);
  i32 n2 = 49;
  rec i32 n3 = 1;
  rec i32 n17 = 0;
  rec i32 n35 = 0;
  rec i32 n37 = 0;
  i32 n4 = n3 + n2;
  i32 n18 = mem[n17];
  i32 n5 = max(n4, n0);
  i32 n21 = mem[n18];
  i32 n6 = max(n5, n1);
  i32 n22 = abs(n21);
  i32 n7 = max(n6, n6);
  i32 n23 = mem[n22];
  i32 n8 = n7 + n7;
  i32 n27 = mem[n23];
  i32 n9 = n8 * n8;
  i32 n10 = min(n9, n7);
  i32 n11 = n10 ^ n8;
  n3 = n11 @ 1;
  i32 n12 = abs(n10);
  i32 n13 = mem[n12];
  i32 n14 = n13 + n10;
  i32 n15 = -n13;
  i32 n16 = ~n14;
  n17 = n16 @ 1;
  i32 n19 = n17 ^ n14;
  i32 n20 = select(n18, n19, n18);
  i32 n24 = -n20;
  i32 n25 = -n24;
  i32 n26 = abs(n24);
  i32 n28 = out(n26);
  i32 n29 = abs(n28);
  i32 n30 = ~n29;
  i32 n31 = n29 * n30;
  i32 n32 = n30 * n28;
  n37 = n32 @ 1;
  i32 n33 = mem[n31];
  i32 n34 = abs(n32);
  i32 n36 = n35 + n34;
  n35 = n36 @ 1;
}
